package runpool

import (
	"sync/atomic"
	"testing"
	"time"

	"graingraph/internal/obs"
)

// TestMapTelemetry pins that a Map fan-out with telemetry attached
// accounts for every job exactly once, in both the serial fallback and the
// pooled schedule, without changing results.
func TestMapTelemetry(t *testing.T) {
	for _, workers := range []int{1, 4} {
		tel := obs.NewPoolTelemetry(workers)
		r := New(workers)
		r.SetTelemetry(tel)
		var ran atomic.Int64
		out, err := Map(r, 100, func(i int) (int, error) {
			ran.Add(1)
			time.Sleep(10 * time.Microsecond)
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
		s := tel.Snapshot()
		if s.Chunks != 100 {
			t.Errorf("workers=%d: telemetry counted %d jobs, want 100", workers, s.Chunks)
		}
		if ran.Load() != 100 {
			t.Errorf("workers=%d: %d bodies ran, want 100", workers, ran.Load())
		}
		if s.Busy <= 0 {
			t.Errorf("workers=%d: busy time %v, want > 0", workers, s.Busy)
		}
		if len(s.Workers) == 0 || len(s.Workers) > workers {
			t.Errorf("workers=%d: %d active worker slots", workers, len(s.Workers))
		}
	}
}

// TestParallelForTelemetry pins chunk accounting for the chunked kernel
// at several worker counts, and that detached telemetry leaves results
// untouched.
func TestParallelForTelemetry(t *testing.T) {
	const n, grain = 10_000, 256
	wantChunks := int64(Chunks(n, grain))
	for _, workers := range []int{1, 3, 8} {
		tel := obs.NewPoolTelemetry(workers)
		r := New(workers)
		r.SetTelemetry(tel)

		sum := make([]int64, Chunks(n, grain))
		ParallelFor(r, n, grain, func(c, lo, hi int) {
			var s int64
			for i := lo; i < hi; i++ {
				s += int64(i)
			}
			sum[c] = s
		})

		s := tel.Snapshot()
		if s.Chunks != wantChunks {
			t.Errorf("workers=%d: telemetry counted %d chunks, want %d", workers, s.Chunks, wantChunks)
		}
		var total int64
		for _, v := range sum {
			total += v
		}
		if want := int64(n) * int64(n-1) / 2; total != want {
			t.Errorf("workers=%d: kernel result %d, want %d", workers, total, want)
		}
		var hist int64
		for _, b := range s.Latency {
			hist += b.Count
		}
		if hist != s.Chunks {
			t.Errorf("workers=%d: histogram covers %d chunks, telemetry counted %d", workers, hist, s.Chunks)
		}
	}
}

// TestWorkerSpanEmission exercises concurrent span emission from inside
// pool workers — the pattern the expt engine uses for simulate:/ingest:
// spans — under the race detector: many bodies begin/end nested spans on
// one shared profiler while chunk telemetry records around them, and the
// snapshot still canonicalizes cleanly.
func TestWorkerSpanEmission(t *testing.T) {
	const jobs = 64
	p := obs.New()
	p.TrackMem = false
	tel := obs.NewPoolTelemetry(8)
	r := New(8)
	r.SetTelemetry(tel)

	_, err := Map(r, jobs, func(i int) (int, error) {
		sp := p.Begin("job")
		c := sp.Child("inner")
		c.End()
		sp.End()
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	spans, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2*jobs {
		t.Fatalf("snapshot has %d spans, want %d", len(spans), 2*jobs)
	}
	roots := 0
	for _, s := range spans {
		switch {
		case s.Parent < 0:
			roots++
			if s.Name != "job" {
				t.Fatalf("root span named %q, want job", s.Name)
			}
		case s.Name != "inner":
			t.Fatalf("child span named %q, want inner", s.Name)
		}
	}
	if roots != jobs {
		t.Fatalf("%d root spans, want %d", roots, jobs)
	}
	if s := tel.Snapshot(); s.Chunks != jobs {
		t.Errorf("telemetry counted %d jobs, want %d", s.Chunks, jobs)
	}
}

// TestCacheCounters pins the hit/miss counter satellite: every Do is
// exactly one hit or one miss.
func TestCacheCounters(t *testing.T) {
	c := NewCache[int]()
	k1, k2 := KeyOf("a"), KeyOf("b")
	compute := func() (int, error) { return 7, nil }
	c.Do(k1, compute)
	c.Do(k1, compute)
	c.Do(k2, compute)
	c.Do(k1, compute)
	got := c.Counters()
	if got.Hits != 2 || got.Misses != 2 {
		t.Fatalf("counters = %+v, want 2 hits / 2 misses", got)
	}
	c.Reset()
	if got := c.Counters(); got.Hits != 0 || got.Misses != 0 {
		t.Fatalf("counters after reset = %+v, want zeroes", got)
	}
}
