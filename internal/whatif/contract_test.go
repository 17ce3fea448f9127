package whatif

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"graingraph/internal/core"
	"graingraph/internal/profile"
	"graingraph/internal/rts"
	"graingraph/internal/runpool"
	"graingraph/internal/workloads"
)

// randomForkJoin builds the seeded irregular task tree the expt pipeline
// invariants run over, followed by a dynamic and a static parallel loop.
func randomForkJoin(seed uint64) func(rts.Ctx) {
	return func(c rts.Ctx) {
		r := c.Alloc("data", 1<<20)
		var rec func(c rts.Ctx, d int, s uint64)
		rec = func(c rts.Ctx, d int, s uint64) {
			c.Compute(200 + s%3000)
			if s%4 == 0 {
				c.Load(r, int64(s%1000)*64, 4096)
			}
			if d == 0 {
				return
			}
			kids := int(s%4) + 1
			for i := 0; i < kids; i++ {
				c.Spawn(profile.Loc("rand.go", i, "n"), func(c rts.Ctx) {
					rec(c, d-1, s*6364136223846793005+uint64(i)+1)
				})
			}
			c.TaskWait()
			c.Compute(100)
		}
		rec(c, 4, seed)
		c.For(profile.Loc("rand.go", 90, "dyn"), 0, 40+int(seed%7), rts.ForOpt{Schedule: profile.ScheduleDynamic, Chunk: 3},
			func(c rts.Ctx, lo, hi int) { c.Compute(uint64(50 * (hi - lo))) })
		c.For(profile.Loc("rand.go", 91, "static"), 0, 16, rts.ForOpt{Schedule: profile.ScheduleStatic},
			func(c rts.Ctx, lo, hi int) { c.Compute(uint64(70 * (hi - lo))) })
	}
}

// checkCollapseFamily requires Eval == EvalFull, field by field, for every
// cutoff depth from 0 to one past the deepest task, and returns how many
// of those depths Eval answered on the contracted graph.
func checkCollapseFamily(t *testing.T, name string, g *core.Graph) (contracted, depths int) {
	t.Helper()
	e := New(g, nil)
	for d := 0; d <= e.maxTaskDepth+1; d++ {
		h := CollapseAtDepth{Depth: d}
		before := e.Stats().Contracted
		got, want := e.Eval(h), e.EvalFull(h)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: depth %d: Eval differs from EvalFull:\nEval:     %+v\nEvalFull: %+v", name, d, got, want)
		}
		if e.Stats().Contracted > before {
			contracted++
		}
	}
	return contracted, e.maxTaskDepth + 2
}

// TestCollapseFamilyMatchesEvalFull pins the contracted cutoff evaluation
// to the oracle on every shape a recorded run takes — and, on those, it
// must be the path taken at every depth.
func TestCollapseFamilyMatchesEvalFull(t *testing.T) {
	subjects := map[string]*core.Graph{}
	for name, s := range oracleSubjects(t) {
		subjects[name] = s.g
	}
	// Every registered workload variant at 1 and 48 cores. Variants that
	// share a content key build the same instance and record the same run,
	// so each key runs once; the runs spread over the pool.
	type run struct {
		name  string
		inst  workloads.Instance
		cores int
	}
	var runs []run
	seen := map[string]bool{}
	for _, spec := range workloads.Describe() {
		if spec.Name == "giant" {
			continue // the G5 giant below stands for it
		}
		for _, v := range spec.Variants {
			inst, err := workloads.Get(spec.Name, v)
			if err != nil {
				t.Fatal(err)
			}
			if key := inst.(workloads.Keyed).Key(); seen[key] {
				continue
			} else {
				seen[key] = true
			}
			for _, cores := range []int{1, 48} {
				if cores == 48 {
					inst, _ = workloads.Get(spec.Name, v)
				}
				runs = append(runs, run{fmt.Sprintf("%s/%s/%d", spec.Name, v, cores), inst, cores})
			}
		}
	}
	graphs, _ := runpool.Map(runpool.New(runtime.GOMAXPROCS(0)), len(runs), func(i int) (*core.Graph, error) {
		r := runs[i]
		return core.Build(rts.Run(rts.Config{Program: r.inst.Name(), Cores: r.cores, Seed: 1}, r.inst.Program())), nil
	})
	for i, r := range runs {
		subjects[r.name] = graphs[i]
	}
	giant := workloads.SmokeGiantParams()
	giant.FullDepth = 5
	subjects["giant-G5"] = core.Build(rts.Run(rts.Config{Program: "giant", Cores: 48, Seed: 1},
		workloads.NewGiant(giant).Program()))
	for seed := uint64(1); seed <= 6; seed++ {
		tr := rts.Run(rts.Config{Program: "rand", Cores: int(seed*7)%48 + 1, Seed: seed}, randomForkJoin(seed))
		subjects[fmt.Sprintf("random/%d", seed)] = core.Build(tr)
	}

	for name, g := range subjects {
		if contracted, depths := checkCollapseFamily(t, name, g); contracted != depths {
			t.Errorf("%s: %d of %d depths contracted, want all", name, contracted, depths)
		}
	}

	// The ranking pass's cutoff family on the giant runs no full DP.
	e := New(subjects["giant-G5"], nil)
	var family []Hypothesis
	for _, h := range e.Candidates(nil) {
		if _, ok := h.(CollapseAtDepth); ok {
			family = append(family, h)
		}
	}
	e.EvalAll(nil, family)
	if st := e.Stats(); st.Full != 0 || st.Contracted != uint64(len(family)) || len(family) < 3 {
		t.Errorf("giant-G5: cutoff family of %d ran %+v, want every one contracted", len(family), st)
	}
}

// brokenGraph hand-builds a two-level tree with room to break one
// precondition of the contraction in the child R.0 (or its sibling):
//
//	n0 R frag(5) → n1 fork(40) → n2 join(40) → n3 R frag(5)
//	n1 → c0 R.0 frag(10) → c1 R.0 frag(30) → n2
//
// edit adds the breaking nodes and edges.
func brokenGraph(edit func(g *core.Graph, add func(core.NodeKind, profile.GrainID, profile.Time) core.NodeID)) *core.Graph {
	g := core.NewGraph(&profile.Trace{Program: "synthetic", Cores: 2, Start: 0, End: 300})
	add := func(kind core.NodeKind, grain profile.GrainID, w profile.Time) core.NodeID {
		return g.AddNode(core.Node{Kind: kind, Grain: grain, Weight: w})
	}
	n0 := add(core.NodeFragment, "R", 5)
	n1 := add(core.NodeFork, "R", 40)
	n2 := add(core.NodeJoin, "R", 40)
	n3 := add(core.NodeFragment, "R", 5)
	c0 := add(core.NodeFragment, "R.0", 10)
	c1 := add(core.NodeFragment, "R.0", 30)
	// Grains are numbered as first added: R, R.0.
	g.FirstNode, g.LastNode = []core.NodeID{n0, c0}, []core.NodeID{n3, c1}
	g.AddEdge(n0, n1, core.EdgeContinuation)
	g.AddEdge(n1, n2, core.EdgeContinuation)
	g.AddEdge(n2, n3, core.EdgeContinuation)
	g.AddEdge(n1, c0, core.EdgeCreation)
	g.AddEdge(c0, c1, core.EdgeContinuation)
	g.AddEdge(c1, n2, core.EdgeJoin)
	if edit != nil {
		edit(g, add)
	}
	return g
}

// TestCollapseFamilyFallsBack: a graph breaking one precondition at a
// depth evaluates that depth off the contracted path, and still matches
// the oracle.
func TestCollapseFamilyFallsBack(t *testing.T) {
	const (
		n0, n1, n2, n3, c0, c1 = 0, 1, 2, 3, 4, 5
	)
	cases := []struct {
		name     string
		edit     func(g *core.Graph, add func(core.NodeKind, profile.GrainID, profile.Time) core.NodeID)
		fallback []int // depths that must not contract
	}{
		{"well-formed", nil, nil},
		{"edge into a non-entry node", func(g *core.Graph, _ func(core.NodeKind, profile.GrainID, profile.Time) core.NodeID) {
			g.AddEdge(n0, c1, core.EdgeContinuation)
		}, []int{1}},
		{"edge from a descendant into the entry", func(g *core.Graph, add func(core.NodeKind, profile.GrainID, profile.Time) core.NodeID) {
			// R.0.0 is spawned by R.0 and feeds R.0's entry.
			k := add(core.NodeFragment, "R.0.0", 3)
			g.AddEdge(k, c0, core.EdgeJoin)
		}, []int{1}},
		{"edge from the root's own node into its entry", func(g *core.Graph, add func(core.NodeKind, profile.GrainID, profile.Time) core.NodeID) {
			k := add(core.NodeBookkeep, "R.0", 7)
			g.AddEdge(k, c0, core.EdgeContinuation)
		}, []int{1}},
		{"exit from a descendant's node", func(g *core.Graph, add func(core.NodeKind, profile.GrainID, profile.Time) core.NodeID) {
			// R.0.0 is spawned by R.0 but joins R directly.
			k := add(core.NodeFragment, "R.0.0", 3)
			g.AddEdge(c0, k, core.EdgeContinuation)
			g.AddEdge(k, n2, core.EdgeJoin)
		}, []int{1}},
		{"two exit nodes", func(g *core.Graph, _ func(core.NodeKind, profile.GrainID, profile.Time) core.NodeID) {
			g.AddEdge(c0, n2, core.EdgeJoin)
		}, []int{1}},
		{"root fragment off the entry→exit path", func(g *core.Graph, add func(core.NodeKind, profile.GrainID, profile.Time) core.NodeID) {
			side := add(core.NodeFragment, "R.0", 500)
			g.AddEdge(c0, side, core.EdgeContinuation)
		}, []int{1}},
		{"root without an entry fragment", func(g *core.Graph, add func(core.NodeKind, profile.GrainID, profile.Time) core.NodeID) {
			// R.1 owns nothing but a fork spawning R.1.0.
			f := add(core.NodeFork, "R.1", 7)
			k := add(core.NodeFragment, "R.1.0", 9)
			g.AddEdge(n1, f, core.EdgeContinuation)
			g.AddEdge(f, k, core.EdgeCreation)
			g.AddEdge(k, n2, core.EdgeJoin)
		}, []int{1}},
		{"overflow-sized weights", func(g *core.Graph, add func(core.NodeKind, profile.GrainID, profile.Time) core.NodeID) {
			k := add(core.NodeFragment, "R.1", math.MaxInt64)
			g.AddEdge(n0, k, core.EdgeContinuation)
			g.AddEdge(k, n2, core.EdgeJoin)
		}, []int{0, 1, 2}},
	}
	for _, tc := range cases {
		g := brokenGraph(tc.edit)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		e := New(g, nil)
		for d := 0; d <= e.maxTaskDepth+1; d++ {
			h := CollapseAtDepth{Depth: d}
			before := e.Stats()
			got := e.Eval(h)
			after := e.Stats()
			if want := e.EvalFull(h); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: depth %d: Eval differs from EvalFull:\nEval:     %+v\nEvalFull: %+v", tc.name, d, got, want)
			}
			contracted := after.Contracted > before.Contracted
			mustFall := false
			for _, fd := range tc.fallback {
				mustFall = mustFall || fd == d
			}
			if contracted == mustFall {
				t.Errorf("%s: depth %d: contracted=%v, want %v (stats %+v → %+v)", tc.name, d, contracted, !mustFall, before, after)
			}
		}
	}
}
