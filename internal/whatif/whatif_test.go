package whatif

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"graingraph/internal/core"
	"graingraph/internal/highlight"
	"graingraph/internal/metrics"
	"graingraph/internal/profile"
	"graingraph/internal/rts"
	"graingraph/internal/runpool"
)

// overheadGraph hand-builds a tiny broken-cutoff shape: root R spawns two
// children whose creation+join overhead (40 each) dwarfs their execution
// weight (10 each).
//
//	n0 R frag(5) → n1 fork(40) → n3 R.0 frag(10) → n5 join(40)
//	             → n2 fork(40) → n4 R.1 frag(10) ↗
//	n5 → n6 R frag(5)
func overheadGraph() *core.Graph {
	tr := &profile.Trace{Program: "synthetic", Cores: 2, Start: 0, End: 200}
	g := core.NewGraph(tr)
	add := func(kind core.NodeKind, grain profile.GrainID, w profile.Time) core.NodeID {
		return g.AddNode(core.Node{Kind: kind, Grain: grain, Weight: w})
	}
	n0 := add(core.NodeFragment, "R", 5)
	n1 := add(core.NodeFork, "R", 40)
	n2 := add(core.NodeFork, "R", 40)
	n3 := add(core.NodeFragment, "R.0", 10)
	n4 := add(core.NodeFragment, "R.1", 10)
	n5 := add(core.NodeJoin, "R", 40)
	n6 := add(core.NodeFragment, "R", 5)
	// Grains are numbered as first added: R, R.0, R.1.
	g.FirstNode, g.LastNode = []core.NodeID{n0, n3, n4}, []core.NodeID{n6, n3, n4}
	g.AddEdge(n0, n1, core.EdgeContinuation)
	g.AddEdge(n1, n2, core.EdgeContinuation)
	g.AddEdge(n1, n3, core.EdgeCreation)
	g.AddEdge(n2, n4, core.EdgeCreation)
	g.AddEdge(n3, n5, core.EdgeJoin)
	g.AddEdge(n4, n5, core.EdgeJoin)
	g.AddEdge(n2, n5, core.EdgeContinuation)
	g.AddEdge(n5, n6, core.EdgeContinuation)
	return g
}

func TestEngineBaseline(t *testing.T) {
	e := New(overheadGraph(), nil)
	if e.BaseWork != 150 {
		t.Errorf("base work = %d, want 150", e.BaseWork)
	}
	if e.BaseMakespan != 200 {
		t.Errorf("base makespan = %d, want 200 (from trace)", e.BaseMakespan)
	}
	if e.BaseSpan != 140 {
		t.Errorf("base span = %d, want 140 (path through a child)", e.BaseSpan)
	}
	if e.BaseSpan == 0 || e.BaseSpan > e.BaseWork {
		t.Errorf("base span = %d out of range", e.BaseSpan)
	}
}

func TestScaleGrainProjection(t *testing.T) {
	g := overheadGraph()
	e := New(g, nil)
	p := e.Eval(ScaleGrain{Grain: "R.0", Factor: 0.5})
	if p.Approximate {
		t.Error("weight scaling marked approximate")
	}
	if p.Work != e.BaseWork-5 {
		t.Errorf("projected work = %d, want %d", p.Work, e.BaseWork-5)
	}
	if p.Speedup < 1 {
		t.Errorf("halving a grain projects slowdown: %.2f", p.Speedup)
	}
	// The recorded graph must be untouched.
	if g.Weight(3) != 10 {
		t.Error("Eval mutated recorded weights")
	}
}

func TestCollapseSubtreeRemovesOverheadSerializesWork(t *testing.T) {
	e := New(overheadGraph(), nil)
	p := e.Eval(CollapseSubtree{Root: "R"})
	if !p.Approximate {
		t.Error("structural collapse not marked approximate")
	}
	// All 120 cycles of fork/join overhead vanish; the 20 cycles of child
	// exec serialize into R: projected work = 5+10+10+5 = 30.
	if p.Work != 30 {
		t.Errorf("projected work = %d, want 30", p.Work)
	}
	// Span is now the serial chain: 5+20+5 = 30.
	if p.Span != 30 {
		t.Errorf("projected span = %d, want 30", p.Span)
	}
	// Overhead dominated → the collapse pays.
	if p.Speedup <= 1 {
		t.Errorf("broken-cutoff collapse projects speedup %.2f, want > 1", p.Speedup)
	}
}

func TestCollapseAtDepthEqualsSubtreeCollapseAtRoot(t *testing.T) {
	e := New(overheadGraph(), nil)
	byDepth := e.Eval(CollapseAtDepth{Depth: 0})
	byRoot := e.Eval(CollapseSubtree{Root: "R"})
	if byDepth.Work != byRoot.Work || byDepth.Span != byRoot.Span || byDepth.Makespan != byRoot.Makespan {
		t.Errorf("depth-0 collapse %+v differs from root collapse %+v", byDepth, byRoot)
	}
}

func TestInfiniteCoresProjectsSpan(t *testing.T) {
	e := New(overheadGraph(), nil)
	p := e.Eval(InfiniteCores{})
	if p.Makespan != p.Span {
		t.Errorf("infinite cores makespan = %d, want span %d", p.Makespan, p.Span)
	}
	if p.Work != e.BaseWork {
		t.Errorf("infinite cores changed work: %d", p.Work)
	}
}

func TestZeroInflationUsesDeviation(t *testing.T) {
	g := overheadGraph()
	// A report of another trace naming the same grains: its rows reach the
	// graph by ID.
	tr := &profile.Trace{Tasks: []*profile.TaskRecord{{ID: "R.0"}, {ID: "R.1"}}}
	rep := &metrics.Report{Trace: tr, Num: []int32{0, 1}, WorkDev: []float64{2.0, 0.9}}
	e := New(g, rep)
	p := e.Eval(ZeroInflation{Grain: "R.0"})
	// R.0's 10 cycles deflate to 5; R.1 (deviation < 1) is untouched.
	if p.Work != e.BaseWork-5 {
		t.Errorf("projected work = %d, want %d", p.Work, e.BaseWork-5)
	}
	all := e.Eval(ZeroInflation{All: true})
	if all.Work != e.BaseWork-5 {
		t.Errorf("de-inflate all work = %d, want %d (R.1 not inflated)", all.Work, e.BaseWork-5)
	}
}

func TestEvalAllDeterministicAcrossPoolSizes(t *testing.T) {
	e := New(overheadGraph(), nil)
	hs := e.Candidates(nil)
	serial := e.EvalAll(runpool.New(1), hs)
	parallel := e.EvalAll(runpool.New(8), hs)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("projections differ across pool sizes:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

func TestRankOrdersByProjectedMakespan(t *testing.T) {
	e := New(overheadGraph(), nil)
	ps, err := e.Rank(nil, nil, RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) == 0 {
		t.Fatal("no candidates ranked")
	}
	for i := 1; i < len(ps); i++ {
		if ps[i].Makespan < ps[i-1].Makespan {
			t.Fatalf("rank not ordered at %d: %d before %d", i, ps[i-1].Makespan, ps[i].Makespan)
		}
	}
	top, err := e.Rank(nil, nil, RankOptions{TopN: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Errorf("TopN=2 returned %d rows", len(top))
	}
}

// TestBrokenCutoffFibShapeProjectsPositiveSpeedup drives the engine over a
// real simulated run shaped like the paper's broken-cutoff fib: a deep
// spawn tree of tiny tasks where creation overhead rivals the work. Some
// perfect-cutoff hypothesis must project a strictly positive speedup.
func TestBrokenCutoffFibShapeProjectsPositiveSpeedup(t *testing.T) {
	tr := rts.Run(rts.Config{Program: "fib-broken", Cores: 8, Seed: 1}, func(c rts.Ctx) {
		var fib func(c rts.Ctx, n int) int
		fib = func(c rts.Ctx, n int) int {
			if n < 2 {
				c.Compute(20)
				return n
			}
			var a, b int
			c.Spawn(profile.Loc("fib.go", 1, "fib"), func(c rts.Ctx) { a = fib(c, n-1) })
			c.Spawn(profile.Loc("fib.go", 2, "fib"), func(c rts.Ctx) { b = fib(c, n-2) })
			c.TaskWait()
			c.Compute(20)
			return a + b
		}
		fib(c, 12)
	})
	g := core.Build(tr)
	rep := metrics.Analyze(tr, g, nil, metrics.Options{})
	a := highlight.EvaluateWith(rep, highlight.Defaults(tr.Cores, 4), nil)
	e := New(g, rep)
	ps, err := e.Rank(a, runpool.New(4), RankOptions{})
	if err != nil {
		t.Fatal(err)
	}

	best := 0.0
	for _, p := range ps {
		if p.Approximate && p.Speedup > best {
			best = p.Speedup
		}
	}
	if best <= 1 {
		t.Errorf("no perfect-cutoff hypothesis projects speedup > 1 on a broken-cutoff tree (best %.3f)", best)
	}
}

func TestParseSpecs(t *testing.T) {
	hs, err := ParseSpecs("scale:R.0:0.5, collapse:R.1,cutoff:3,deinflate:all,infcores,scale-subtree:R:0.25,deinflate:R.2")
	if err != nil {
		t.Fatal(err)
	}
	want := []Hypothesis{
		ScaleGrain{Grain: "R.0", Factor: 0.5},
		CollapseSubtree{Root: "R.1"},
		CollapseAtDepth{Depth: 3},
		ZeroInflation{All: true},
		InfiniteCores{},
		ScaleGrain{Grain: "R", Factor: 0.25, Subtree: true},
		ZeroInflation{Grain: "R.2"},
	}
	if !reflect.DeepEqual(hs, want) {
		t.Errorf("parsed %+v, want %+v", hs, want)
	}
	for _, bad := range []string{"", "bogus", "scale:R", "scale:R:x", "cutoff:-1", "cutoff:x", "collapse:", "deinflate:", "infcores:3"} {
		if _, err := ParseSpecs(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

// TestWriteTableGolden pins the what-if summary table's exact bytes: the
// expt regenerator and the -j determinism guarantee both build on this
// formatting.
func TestWriteTableGolden(t *testing.T) {
	e := New(overheadGraph(), nil)
	ps := []Projection{
		e.Eval(CollapseSubtree{Root: "R"}),
		e.Eval(InfiniteCores{}),
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, "what-if: synthetic", ps); err != nil {
		t.Fatal(err)
	}
	const golden = "what-if: synthetic\n" +
		"#  hypothesis                   proj makespan  speedup  work Δ  proj span  note\n" +
		"1  perfect cutoff at R          140            1.43x    -80.0%  30         approx\n" +
		"2  infinite cores (span bound)  140            1.43x    +0.0%   140        exact\n" +
		"-  baseline (observed)          200            1.00x    +0.0%   140        measured\n"
	if got := buf.String(); got != golden {
		t.Errorf("table mismatch:\ngot:\n%s\nwant:\n%s", got, golden)
	}
}

// oracleSubjects builds the workload shapes the sparse/full oracle test
// runs over: the hand-built overhead graph, a broken-cutoff fib tree, and a
// chunked parallel-loop run (so chunk nodes and loop ownership are covered).
func oracleSubjects(t *testing.T) map[string]struct {
	g   *core.Graph
	rep *metrics.Report
	a   *highlight.Assessment
} {
	t.Helper()
	subjects := make(map[string]struct {
		g   *core.Graph
		rep *metrics.Report
		a   *highlight.Assessment
	})
	add := func(name string, tr *profile.Trace) {
		g := core.Build(tr)
		rep := metrics.Analyze(tr, g, nil, metrics.Options{})
		a := highlight.EvaluateWith(rep, highlight.Defaults(tr.Cores, 4), nil)
		subjects[name] = struct {
			g   *core.Graph
			rep *metrics.Report
			a   *highlight.Assessment
		}{g, rep, a}
	}

	fibTr := rts.Run(rts.Config{Program: "fib-broken", Cores: 8, Seed: 1}, func(c rts.Ctx) {
		var fib func(c rts.Ctx, n int) int
		fib = func(c rts.Ctx, n int) int {
			if n < 2 {
				c.Compute(20)
				return n
			}
			var a, b int
			c.Spawn(profile.Loc("fib.go", 1, "fib"), func(c rts.Ctx) { a = fib(c, n-1) })
			c.Spawn(profile.Loc("fib.go", 2, "fib"), func(c rts.Ctx) { b = fib(c, n-2) })
			c.TaskWait()
			c.Compute(20)
			return a + b
		}
		fib(c, 11)
	})
	add("fib-broken", fibTr)

	loopTr := rts.Run(rts.Config{Program: "loop", Cores: 8, Seed: 1}, func(c rts.Ctx) {
		c.Compute(50)
		c.For(profile.Loc("loop.go", 1, "main"), 0, 64,
			rts.ForOpt{Schedule: profile.ScheduleStatic, Chunk: 4},
			func(c rts.Ctx, lo, hi int) {
				c.Compute(profile.Time(10 * (hi - lo)))
			})
		c.Compute(50)
	})
	add("loop", loopTr)

	og := overheadGraph()
	subjects["overhead"] = struct {
		g   *core.Graph
		rep *metrics.Report
		a   *highlight.Assessment
	}{og, nil, nil}
	return subjects
}

// TestEvalMatchesFullOracle is the tentpole's exactness guarantee: for every
// generated candidate on every subject shape, the sparse path (overlay edits
// + delta work accounting + delta critical-path DP) must produce the same
// projection — bit for bit, every field — as the materialize-and-rescan
// oracle path the engine used before sparse evaluation existed.
func TestEvalMatchesFullOracle(t *testing.T) {
	for name, s := range oracleSubjects(t) {
		e := New(s.g, s.rep)
		hs := e.Candidates(s.a)
		// Explicit hypotheses beyond the generated set: subtree scaling and
		// single-grain collapse have no candidate generator.
		hs = append(hs,
			ScaleGrain{Grain: "R.0", Factor: 0.25, Subtree: true},
			ScaleGrain{Grain: "R.0", Factor: 3.0},
			CollapseSubtree{Root: "R.0"},
			CollapseSubtree{Root: "R"},
			CollapseSubtree{Root: "R.does-not-exist"},
			ZeroInflation{All: true},
		)
		for _, h := range hs {
			sparse := e.Eval(h)
			full := e.EvalFull(h)
			if !reflect.DeepEqual(sparse, full) {
				t.Errorf("%s: %q: sparse projection differs from full oracle:\nsparse: %+v\nfull:   %+v",
					name, h.Label(), sparse, full)
			}
		}
		st := e.Stats()
		if st.Sparse == 0 {
			t.Errorf("%s: no evaluation took the sparse path (stats %+v)", name, st)
		}
		if st.Full == 0 {
			t.Errorf("%s: no evaluation took the full oracle path (stats %+v)", name, st)
		}
	}
}

// TestRankOptionValidation pins the error contract for out-of-range options.
func TestRankOptionValidation(t *testing.T) {
	e := New(overheadGraph(), nil)
	if _, err := e.Rank(nil, nil, RankOptions{TopN: -1}); err == nil {
		t.Error("Rank accepted a negative TopN")
	}
	if _, err := e.Rank(nil, nil, RankOptions{TopN: 3}); err != nil {
		t.Errorf("Rank rejected valid options: %v", err)
	}
}

// TestEngineTablesFollowNumbering: the engine's per-grain and per-slot
// tables are sized by the graph's grain numbers and its owner table — one
// deviation entry per grain number, one entry fragment per owner slot,
// each slot's entry a fragment of the task that owns the slot.
func TestEngineTablesFollowNumbering(t *testing.T) {
	for name, s := range oracleSubjects(t) {
		g := s.g
		if s.rep == nil {
			continue // the hand-assembled graph: no trace grains to number
		}
		e := New(g, s.rep)
		own := g.Owners()
		if len(e.deviation) != g.Trace.NumGrains() {
			t.Errorf("%s: %d deviation entries for %d grains", name, len(e.deviation), g.Trace.NumGrains())
		}
		if len(e.ownerEntry) != len(own.Grain) {
			t.Errorf("%s: %d entry fragments for %d owner slots", name, len(e.ownerEntry), len(own.Grain))
		}
		for si, n := range e.ownerEntry {
			if n >= 0 && (own.Of[n] != int32(si) || g.GrainNum(core.NodeID(n)) != own.Grain[si]) {
				t.Errorf("%s: slot %d enters at node %d, owned by slot %d", name, si, n, own.Of[n])
			}
		}
	}
}

// TestNewAdoptsTheReportsBaseline: an engine over an analysed graph runs
// no second critical-path DP — it holds the report's baseline itself, and
// building it allocates less than one distance column would take.
func TestNewAdoptsTheReportsBaseline(t *testing.T) {
	tr := rts.Run(rts.Config{Program: "fib", Cores: 8, Seed: 1}, func(c rts.Ctx) {
		var fib func(c rts.Ctx, n int)
		fib = func(c rts.Ctx, n int) {
			c.Compute(20)
			if n < 2 {
				return
			}
			c.Spawn(profile.Loc("fib.go", 1, "fib"), func(c rts.Ctx) { fib(c, n-1) })
			c.Spawn(profile.Loc("fib.go", 2, "fib"), func(c rts.Ctx) { fib(c, n-2) })
			c.TaskWait()
		}
		fib(c, 14)
	})
	g := core.Build(tr)
	rep := metrics.Analyze(tr, g, nil, metrics.Options{})
	e := New(g, rep)
	if e.cpBase == nil || e.cpBase != rep.CriticalBaseline(g) {
		t.Fatal("New built a second baseline instead of adopting the report's")
	}
	if e.BaseSpan != rep.CriticalPathLength {
		t.Errorf("BaseSpan %d, report critical path %d", e.BaseSpan, rep.CriticalPathLength)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	New(g, rep)
	runtime.ReadMemStats(&after)
	dist := uint64(g.NumNodes()) * uint64(unsafe.Sizeof(profile.Time(0)))
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("New allocated %d bytes; one distance column is %d", got, dist)
	if got >= dist {
		t.Errorf("New allocated %d bytes, not below one distance column (%d)", got, dist)
	}

	// A report over another graph of the trace is not adopted.
	if other := New(core.Build(tr), rep); other.cpBase == e.cpBase {
		t.Error("New adopted a baseline computed on another graph")
	}
}

// TestDenseEvalsExactUnderConcurrency runs only dense evaluations — a
// whole-report de-inflation, which spills up front, and grain scalings
// whose dirty cone passes the fallback fraction — several at once on a
// pool, then pins each projection to the EvalFull oracle bit for bit. The
// engine may make one dense buffer per evaluation in flight, never more.
func TestDenseEvalsExactUnderConcurrency(t *testing.T) {
	fib := func(c rts.Ctx) {
		data := c.Alloc("data", 1<<20)
		var fib func(c rts.Ctx, n int)
		fib = func(c rts.Ctx, n int) {
			c.Compute(30)
			if n < 2 {
				c.Load(data, int64(n)*4096, 4096) // shared lines: inflation on many cores
				return
			}
			c.Spawn(profile.Loc("fib.go", 1, "fib"), func(c rts.Ctx) { fib(c, n-1) })
			c.Spawn(profile.Loc("fib.go", 2, "fib"), func(c rts.Ctx) { fib(c, n-2) })
			c.TaskWait()
			c.Compute(10)
		}
		fib(c, 18)
	}
	tr := rts.Run(rts.Config{Program: "fib", Cores: 8, Seed: 1}, fib)
	base := rts.Run(rts.Config{Program: "fib", Cores: 1, Seed: 1}, fib)
	g := core.Build(tr)
	rep := metrics.Analyze(tr, g, base, metrics.Options{})
	e := New(g, rep)
	if z := (ZeroInflation{All: true}); !e.inflated || !z.likelyDense(e) {
		t.Fatalf("%d nodes, inflated %v: de-inflation would not spill up front", g.NumNodes(), e.inflated)
	}
	hs := []Hypothesis{
		ZeroInflation{All: true},
		ScaleGrain{Grain: profile.RootID, Factor: 0.5},
		ScaleGrain{Grain: profile.RootID, Factor: 2},
		ScaleGrain{Grain: "R.0", Factor: 0.25},
		ScaleGrain{Grain: "R.0", Factor: 3, Subtree: true},
		ZeroInflation{All: true},
	}
	const workers = 3
	got := e.EvalAll(runpool.New(workers), hs)
	if st := e.Stats(); st.Fallback != uint64(len(hs)) || st.Sparse != 0 {
		t.Fatalf("stats %+v: want all %d evaluations on the dense fallback", st, len(hs))
	}
	t.Logf("%d nodes, %d dense buffers made", g.NumNodes(), e.made)
	if e.made > workers {
		t.Errorf("%d dense buffers made for at most %d evaluations in flight", e.made, workers)
	}
	for i, h := range hs {
		if want := e.EvalFull(h); !reflect.DeepEqual(got[i], want) {
			t.Errorf("%q: dense projection differs from the oracle:\ngot:  %+v\nwant: %+v", h.Label(), got[i], want)
		}
	}
}
