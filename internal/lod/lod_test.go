package lod

import (
	"bytes"
	"strings"
	"testing"

	"graingraph/internal/core"
	"graingraph/internal/export"
	"graingraph/internal/highlight"
	"graingraph/internal/metrics"
	"graingraph/internal/profile"
	"graingraph/internal/rts"
)

// subject is an analyzed small run: graph with critical flags set, report
// and assessment, as the analysis pipeline produces them.
type subject struct {
	g *core.Graph
	a *highlight.Assessment
}

func subjects(t *testing.T) map[string]subject {
	t.Helper()
	out := make(map[string]subject)
	add := func(name string, tr *profile.Trace) {
		g := core.Build(tr)
		rep := metrics.Analyze(tr, g, nil, metrics.Options{})
		a := highlight.EvaluateWith(rep, highlight.Defaults(tr.Cores, 4), nil)
		out[name] = subject{g, a}
	}

	fibTr := rts.Run(rts.Config{Program: "fib", Cores: 8, Seed: 1}, func(c rts.Ctx) {
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
		fib(c, 10)
	})
	add("fib", fibTr)

	loopTr := rts.Run(rts.Config{Program: "loop", Cores: 8, Seed: 1}, func(c rts.Ctx) {
		c.Compute(50)
		c.For(profile.Loc("loop.go", 1, "main"), 0, 256,
			rts.ForOpt{Schedule: profile.ScheduleStatic, Chunk: 4},
			func(c rts.Ctx, lo, hi int) {
				c.Compute(profile.Time(10 * (hi - lo)))
			})
		c.Compute(50)
	})
	add("loop", loopTr)
	return out
}

func totalWeight(g *core.Graph) int64 {
	var sum int64
	for n := core.NodeID(0); n < core.NodeID(g.NumNodes()); n++ {
		sum += int64(g.Weight(n))
	}
	return sum
}

func criticalNodes(g *core.Graph) int {
	count := 0
	for n := core.NodeID(0); n < core.NodeID(g.NumNodes()); n++ {
		if g.Critical(n) {
			count++
		}
	}
	return count
}

// TestIndexRootRollup pins the index's core invariant: every node's weight
// rolls up into the root task's subtree aggregate, so the root slot's
// subtree work is the whole graph's work.
func TestIndexRootRollup(t *testing.T) {
	for name, s := range subjects(t) {
		ix := Build(s.g, s.a)
		if len(ix.grain) == 0 {
			t.Errorf("%s: index has no tasks", name)
		}
		si := ix.slot(s.g.LookupGrain(profile.RootID))
		if si < 0 {
			t.Fatalf("%s: root subtree missing from index", name)
		}
		if w := ix.subWork[si]; w != totalWeight(s.g) {
			t.Errorf("%s: root subtree work = %d, want total graph weight %d", name, w, totalWeight(s.g))
		}
		if ix.slot(s.g.LookupGrain("R.does-not-exist")) >= 0 {
			t.Errorf("%s: unknown grain reported a subtree", name)
		}
	}
}

// TestWindowCollapsesAndConserves drives a tight window over each subject:
// the view must be much smaller than the source, collapse the remainder
// into super-nodes, and conserve total work exactly (expanded nodes carry
// their own weight; super-nodes carry the aggregated rest).
func TestWindowCollapsesAndConserves(t *testing.T) {
	for name, s := range subjects(t) {
		ix := Build(s.g, s.a)
		wg, stats, err := ix.Window(WindowOptions{Depth: 1, Top: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if stats.Nodes >= s.g.NumNodes() {
			t.Errorf("%s: window kept %d of %d nodes — nothing collapsed", name, stats.Nodes, s.g.NumNodes())
		}
		if stats.SuperNodes == 0 {
			t.Errorf("%s: tight window produced no super-nodes", name)
		}
		if stats.SourceSize != s.g.NumNodes() {
			t.Errorf("%s: stats source size %d, want %d", name, stats.SourceSize, s.g.NumNodes())
		}
		if got, want := totalWeight(wg), totalWeight(s.g); got != want {
			t.Errorf("%s: windowed graph work %d, want %d (collapse must conserve work)", name, got, want)
		}
	}
}

// TestWindowCriticalSpineExact is the navigation guarantee: however tight
// the depth/top budget, every critical-path node of the source graph
// appears verbatim in the window — critical subtrees expand past the limits
// and critical chunks never fold into loop super-nodes.
func TestWindowCriticalSpineExact(t *testing.T) {
	for name, s := range subjects(t) {
		want := criticalNodes(s.g)
		if want == 0 {
			t.Fatalf("%s: analysis marked no critical nodes; test subject is useless", name)
		}
		ix := Build(s.g, s.a)
		wg, _, err := ix.Window(WindowOptions{Depth: 1, Top: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := criticalNodes(wg); got != want {
			t.Errorf("%s: window shows %d critical nodes, want all %d", name, got, want)
		}
	}
}

// TestWindowLoopChunksCollapse checks the loop-specific fold: a loop with
// more chunks than the fan-out budget renders as one aggregate chunk node
// (plus any critical chunks kept verbatim), with Members recording how many
// it absorbed.
func TestWindowLoopChunksCollapse(t *testing.T) {
	s := subjects(t)["loop"]
	chunks := 0
	for n := core.NodeID(0); n < core.NodeID(s.g.NumNodes()); n++ {
		if s.g.Kind(n) == core.NodeChunk {
			chunks++
		}
	}
	if chunks <= 8 {
		t.Fatalf("loop subject has only %d chunks; cannot exercise the collapse", chunks)
	}
	ix := Build(s.g, s.a)
	wg, _, err := ix.Window(WindowOptions{Depth: 4, Top: 2})
	if err != nil {
		t.Fatal(err)
	}
	wchunks, members := 0, 0
	for n := core.NodeID(0); n < core.NodeID(wg.NumNodes()); n++ {
		if wg.Kind(n) != core.NodeChunk {
			continue
		}
		wchunks++
		if m := wg.NodeAt(n).Members; m > 1 {
			members += m
		} else {
			members++
		}
	}
	if wchunks >= chunks {
		t.Errorf("window kept %d chunk nodes of %d — oversized loop did not collapse", wchunks, chunks)
	}
	if members != chunks {
		t.Errorf("windowed chunk nodes account for %d source chunks, want %d", members, chunks)
	}
}

// TestWindowErrors pins the validation surface: unknown roots and negative
// budgets fail loudly instead of rendering an empty or infinite view.
func TestWindowErrors(t *testing.T) {
	s := subjects(t)["fib"]
	ix := Build(s.g, s.a)
	cases := []WindowOptions{
		{Root: "R.does-not-exist"},
		{Depth: -1},
		{Top: -3},
	}
	for _, opt := range cases {
		if _, _, err := ix.Window(opt); err == nil {
			t.Errorf("Window(%+v) succeeded, want error", opt)
		}
	}
}

// TestWindowDeterministic renders the same window twice and requires
// byte-identical DOT — node order, edge order, labels, everything. The
// index is also shared across the two queries, pinning its immutability.
func TestWindowDeterministic(t *testing.T) {
	for name, s := range subjects(t) {
		ix := Build(s.g, s.a)
		render := func() []byte {
			wg, _, err := ix.Window(WindowOptions{Depth: 2, Top: 2})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var buf bytes.Buffer
			if err := export.DOTWithWhatIfPool(&buf, wg, s.a, export.ViewStructure, nil, nil); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return buf.Bytes()
		}
		first, second := render(), render()
		if !bytes.Equal(first, second) {
			t.Errorf("%s: two identical window queries rendered different DOT", name)
		}
		if !strings.Contains(string(first), "digraph") {
			t.Errorf("%s: windowed DOT looks malformed", name)
		}
	}
}
