package export

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"graingraph/internal/core"
	"graingraph/internal/metrics"
	"graingraph/internal/profile"
	"graingraph/internal/rts"
)

// tracedRun performs a small run with enough parallel slack for steals
// and parks, analyzes it, and bundles it as a PerfettoRun.
func tracedRun(t *testing.T) PerfettoRun {
	t.Helper()
	var fib func(c rts.Ctx, n int)
	fib = func(c rts.Ctx, n int) {
		if n < 2 {
			c.Compute(200)
			return
		}
		c.Spawn(profile.Loc("p.go", 1, "fib"), func(c rts.Ctx) { fib(c, n-1) })
		c.Spawn(profile.Loc("p.go", 1, "fib"), func(c rts.Ctx) { fib(c, n-2) })
		c.TaskWait()
	}
	tr := rts.Run(rts.Config{Program: "perf", Cores: 4, Seed: 1},
		func(c rts.Ctx) {
			fib(c, 9)
			c.For(profile.Loc("p.go", 2, "loop"), 0, 16,
				rts.ForOpt{Schedule: profile.ScheduleDynamic, Chunk: 2},
				func(c rts.Ctx, lo, hi int) { c.Compute(3000) })
		})
	g := core.Build(tr)
	metrics.Analyze(tr, g, nil, metrics.Options{})
	return PerfettoRun{Label: "perf run", Trace: tr, Critical: g.CriticalGrains()}
}

// perfEvent mirrors chromeEvent for decoding test output.
type perfEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Ph    string         `json:"ph"`
	Ts    uint64         `json:"ts"`
	Dur   uint64         `json:"dur"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s"`
	Cname string         `json:"cname"`
	Args  map[string]any `json:"args"`
}

type perfDoc struct {
	TraceEvents     []perfEvent    `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData"`
}

func decodePerfetto(t *testing.T, runs []PerfettoRun) ([]byte, perfDoc) {
	t.Helper()
	var buf bytes.Buffer
	if err := Perfetto(&buf, runs); err != nil {
		t.Fatal(err)
	}
	var doc perfDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Perfetto output is not valid JSON: %v", err)
	}
	return buf.Bytes(), doc
}

// TestPerfettoRoundTrip is the end-to-end tracing check: a small rts.Run
// must export to a Perfetto JSON whose slices are
// well-nested per worker track, whose total slice duration equals the
// profile's busy time, and whose scheduler instants match the run's
// per-worker event counts.
func TestPerfettoRoundTrip(t *testing.T) {
	run := tracedRun(t)
	raw, doc := decodePerfetto(t, []PerfettoRun{run})

	type track struct{ pid, tid int }
	slices := map[track][]perfEvent{}
	instants := map[string]uint64{}
	var critical, taskSlices, chunkSlices int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			slices[track{e.Pid, e.Tid}] = append(slices[track{e.Pid, e.Tid}], e)
			if e.Cname != "" {
				critical++
			}
			switch e.Cat {
			case "task":
				taskSlices++
			case "chunk":
				chunkSlices++
			default:
				t.Errorf("slice %q has unexpected category %q", e.Name, e.Cat)
			}
		case "i":
			if e.Scope != "t" {
				t.Errorf("instant %q has scope %q, want thread scope", e.Name, e.Scope)
			}
			instants[e.Name]++
		case "M":
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}

	// Slices on one worker track must be well-nested: sorted by start
	// (ties: longer first), each slice either nests inside the enclosing
	// one or begins at/after its end.
	var totalDur uint64
	for tk, evs := range slices {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].Ts != evs[j].Ts {
				return evs[i].Ts < evs[j].Ts
			}
			return evs[i].Dur > evs[j].Dur
		})
		var stack []perfEvent
		for _, e := range evs {
			totalDur += e.Dur
			for len(stack) > 0 && e.Ts >= stack[len(stack)-1].Ts+stack[len(stack)-1].Dur {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				if e.Ts+e.Dur > top.Ts+top.Dur {
					t.Fatalf("track %v: slice %q [%d,%d) straddles %q [%d,%d)",
						tk, e.Name, e.Ts, e.Ts+e.Dur, top.Name, top.Ts, top.Ts+top.Dur)
				}
			}
			stack = append(stack, e)
		}
	}

	// Total slice duration == the profile's busy time.
	var busy uint64
	for i := range run.Trace.Workers {
		busy += run.Trace.Workers[i].Busy
	}
	if totalDur != busy {
		t.Errorf("total slice duration %d ≠ profile busy time %d", totalDur, busy)
	}

	// Every scheduler event of the run is exported as an instant.
	var steals, parks, resumes uint64
	for _, w := range run.Trace.WorkerCounts() {
		steals += w.Steals
		parks += w.Parks
		resumes += w.Resumes
	}
	if instants["steal"] != steals || instants["park"] != parks || instants["resume"] != resumes {
		t.Errorf("steal/park/resume instants %d/%d/%d, worker counts %d/%d/%d",
			instants["steal"], instants["park"], instants["resume"], steals, parks, resumes)
	}
	if steals == 0 {
		t.Error("test run produced no steals; the instant check is vacuous")
	}

	// Slice inventory covers every fragment and chunk.
	wantTask := 0
	for _, task := range run.Trace.Tasks {
		wantTask += len(task.Fragments)
	}
	if taskSlices != wantTask {
		t.Errorf("task slices %d, profile fragments %d", taskSlices, wantTask)
	}
	if chunkSlices != len(run.Trace.Chunks) {
		t.Errorf("chunk slices %d, profile chunks %d", chunkSlices, len(run.Trace.Chunks))
	}

	// Critical-path grains are flagged with the colour override.
	if len(run.Critical) == 0 || critical == 0 {
		t.Errorf("critical slices %d (critical grains %d), want > 0", critical, len(run.Critical))
	}

	// Metadata: one process_name, one thread_name per worker.
	names := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			names[e.Name]++
		}
	}
	if names["process_name"] != 1 || names["thread_name"] != run.Trace.Cores {
		t.Errorf("metadata: %d process_name, %d thread_name (cores %d)",
			names["process_name"], names["thread_name"], run.Trace.Cores)
	}

	// Byte stability: exporting the same runs twice is identical.
	raw2, _ := decodePerfetto(t, []PerfettoRun{run})
	if !bytes.Equal(raw, raw2) {
		t.Error("Perfetto output not byte-stable across exports")
	}
}

// TestPerfettoMultiRun: several runs get distinct pids, and a nil trace
// still yields valid JSON with just the process metadata.
func TestPerfettoMultiRun(t *testing.T) {
	run := tracedRun(t)
	empty := PerfettoRun{Label: "empty"}
	_, doc := decodePerfetto(t, []PerfettoRun{run, empty})
	pids := map[int]bool{}
	var emptyEvents []perfEvent
	for _, e := range doc.TraceEvents {
		pids[e.Pid] = true
		if e.Pid == 2 {
			emptyEvents = append(emptyEvents, e)
		}
	}
	if !pids[1] || !pids[2] {
		t.Errorf("pids seen: %v, want runs under pid 1 and 2", pids)
	}
	if len(emptyEvents) != 1 || emptyEvents[0].Name != "process_name" || emptyEvents[0].Args["name"] != "empty" {
		t.Errorf("nil-trace run exported %+v, want only its process_name metadata", emptyEvents)
	}
}
