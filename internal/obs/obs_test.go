package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanNesting pins the hierarchy bookkeeping: parents, depths and the
// canonical depth-first order of a balanced begin/end sequence.
func TestSpanNesting(t *testing.T) {
	p := New()
	root := p.Begin("analyze")
	b := root.Child("build")
	b.End()
	m := root.Child("metrics")
	rows := m.Child("rows")
	rows.End()
	m.End()
	root.End()

	spans, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range spans {
		names = append(names, strings.Repeat(">", s.Depth)+s.Name)
	}
	got := strings.Join(names, " ")
	want := "analyze >build >metrics >>rows"
	if got != want {
		t.Fatalf("canonical order %q, want %q", got, want)
	}
	for _, s := range spans {
		if s.Parent >= 0 && spans[s.Parent].Depth != s.Depth-1 {
			t.Errorf("span %s: parent depth %d, own depth %d", s.Name, spans[s.Parent].Depth, s.Depth)
		}
		if s.Dur < 0 {
			t.Errorf("span %s: negative duration %v", s.Name, s.Dur)
		}
	}
}

// TestCanonicalOrderSortsByName pins that sibling and root ordering is by
// name, not creation order — the property that makes snapshot structure
// deterministic when concurrent goroutines race to open spans.
func TestCanonicalOrderSortsByName(t *testing.T) {
	p := New()
	zb := p.Begin("z")
	ab := p.Begin("a")
	c2 := ab.Child("second")
	c1 := ab.Child("first")
	c1.End()
	c2.End()
	ab.End()
	zb.End()

	spans, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range spans {
		names = append(names, s.Name)
	}
	got := strings.Join(names, " ")
	if want := "a first second z"; got != want {
		t.Fatalf("canonical order %q, want %q", got, want)
	}
}

// TestDoubleEndPanics pins the unbalanced-instrumentation guard: a span
// ended twice panics with the span's name rather than corrupting counts.
func TestDoubleEndPanics(t *testing.T) {
	p := New()
	s := p.Begin("oops")
	s.End()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second End did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "oops") {
			t.Fatalf("panic %v does not name the span", r)
		}
	}()
	s.End()
}

// TestSnapshotRejectsOpenSpans pins the other unbalance direction: a
// snapshot with spans still open errors cleanly, naming them.
func TestSnapshotRejectsOpenSpans(t *testing.T) {
	p := New()
	root := p.Begin("root")
	root.Child("leaked-child") // never ended
	if _, err := p.Snapshot(); err == nil {
		t.Fatal("snapshot with open spans succeeded")
	} else if !strings.Contains(err.Error(), "leaked-child") {
		t.Fatalf("error %v does not name the open span", err)
	}
	// Closing the remaining spans makes the snapshot valid again.
	for i := range p.spans {
		if !p.spans[i].ended {
			(&Span{p: p, id: i}).End()
		}
	}
	if _, err := p.Snapshot(); err != nil {
		t.Fatalf("balanced snapshot still errors: %v", err)
	}
	_ = root
}

// TestNilGuards pins the zero-overhead-off contract: nil profilers,
// spans and telemetry absorb every call.
func TestNilGuards(t *testing.T) {
	var p *Profiler
	s := p.Begin("x")
	if s != nil {
		t.Fatal("nil profiler returned a live span")
	}
	if c := s.Child("y"); c != nil {
		t.Fatal("nil span returned a live child")
	}
	s.End() // must not panic
	if got, err := p.Snapshot(); got != nil || err != nil {
		t.Fatalf("nil profiler snapshot = %v, %v", got, err)
	}
	if sp := Under(p, nil, "z"); sp != nil {
		t.Fatal("Under(nil, nil) returned a live span")
	}

	var tel *PoolTelemetry
	tel.RecordChunk(0, time.Millisecond)
	tel.RecordWorkerSpan(0, time.Millisecond)
	tel.RecordQueueWait(time.Millisecond)
	if tel.Snapshot() != nil {
		t.Fatal("nil telemetry snapshot non-nil")
	}
}

// TestConcurrentSpans exercises concurrent span emission from many
// goroutines — the pool-worker shape — under the race detector, and checks
// the snapshot is canonical regardless of interleaving.
func TestConcurrentSpans(t *testing.T) {
	p := New()
	p.TrackMem = false // keep the hot loop allocation-light
	root := p.Begin("fanout")
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := root.Child("worker")
				inner := s.Child("chunk")
				inner.End()
				s.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()

	spans, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + workers*50*2; len(spans) != want {
		t.Fatalf("snapshot has %d spans, want %d", len(spans), want)
	}
	for i := 1; i < len(spans); i++ {
		prev, cur := spans[i-1], spans[i]
		if cur.Parent == prev.Parent && prev.Name > cur.Name {
			t.Fatalf("siblings out of order at %d: %q before %q", i, prev.Name, cur.Name)
		}
	}
}

// TestPoolTelemetry pins the aggregate arithmetic: busy/idle derivation,
// chunk counts, histogram population and memo counters.
func TestPoolTelemetry(t *testing.T) {
	tel := NewPoolTelemetry(4)
	tel.RecordChunk(0, 100*time.Microsecond)
	tel.RecordChunk(0, 300*time.Microsecond)
	tel.RecordChunk(2, 1*time.Millisecond)
	tel.RecordWorkerSpan(0, 500*time.Microsecond)
	tel.RecordWorkerSpan(2, 2*time.Millisecond)
	tel.RecordQueueWait(50 * time.Microsecond)

	s := tel.Snapshot()
	if len(s.Workers) != 2 {
		t.Fatalf("active workers = %d, want 2 (idle slots omitted)", len(s.Workers))
	}
	if s.Chunks != 3 {
		t.Errorf("chunks = %d, want 3", s.Chunks)
	}
	if want := 400 * time.Microsecond; s.Workers[0].Busy != want {
		t.Errorf("worker 0 busy = %v, want %v", s.Workers[0].Busy, want)
	}
	if want := 100 * time.Microsecond; s.Workers[0].Idle != want {
		t.Errorf("worker 0 idle = %v, want %v", s.Workers[0].Idle, want)
	}
	var histTotal int64
	for _, b := range s.Latency {
		if b.Lo >= b.Hi {
			t.Errorf("bucket bounds [%v,%v) inverted", b.Lo, b.Hi)
		}
		histTotal += b.Count
	}
	if histTotal != 3 {
		t.Errorf("histogram counts %d chunks, want 3", histTotal)
	}
	if s.QueueWait != 50*time.Microsecond || s.Fanouts != 1 {
		t.Errorf("queue wait %v over %d, want 50µs over 1", s.QueueWait, s.Fanouts)
	}

	// Out-of-range worker indexes clamp instead of panicking.
	tel.RecordChunk(99, time.Microsecond)
	tel.RecordChunk(-1, time.Microsecond)
}

// TestWriteTable smoke-checks the phase table: every span name appears,
// indentation follows depth, and the coverage line is present for nested
// profiles.
func TestWriteTable(t *testing.T) {
	p := New()
	root := p.Begin("analyze")
	c := root.Child("build")
	time.Sleep(time.Millisecond)
	c.End()
	root.End()
	spans, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	tel := NewPoolTelemetry(2)
	tel.RecordChunk(0, time.Millisecond)
	tel.RecordWorkerSpan(0, 2*time.Millisecond)
	pool := tel.Snapshot()
	pool.Memos = append(pool.Memos, MemoCounters{Name: "simulate", Hits: 1})

	var buf bytes.Buffer
	if err := WriteTable(&buf, &Profile{Spans: spans, Pool: pool}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"analyze", "  build", "phases attribute", "runpool:", "memo simulate: 1 hits"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
