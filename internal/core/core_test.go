package core_test

import (
	"testing"

	. "graingraph/internal/core"
	"graingraph/internal/profile"
	"graingraph/internal/rts"
)

func loc(line int, fn string) profile.SrcLoc { return profile.Loc("test.go", line, fn) }

// fig3aTrace runs the paper's Figure 3a program: task foo creates bar and
// baz with computation in between and synchronizes with both.
func fig3aTrace(t *testing.T, cores int) *profile.Trace {
	t.Helper()
	return rts.Run(rts.Config{Program: "fig3a", Cores: cores, Seed: 7}, func(c rts.Ctx) {
		c.Compute(1000) // foo fragment 1
		c.Spawn(loc(10, "bar"), func(c rts.Ctx) { c.Compute(4000) })
		c.Compute(1000) // foo fragment 2
		c.Spawn(loc(11, "baz"), func(c rts.Ctx) { c.Compute(3000) })
		c.Compute(1000) // foo fragment 3
		c.TaskWait()
		c.Compute(1000) // foo fragment 4
	})
}

// fig3bTrace runs the paper's Figure 3b program: a 20-iteration loop in
// chunks of 4 on two threads.
func fig3bTrace(t *testing.T) *profile.Trace {
	t.Helper()
	return rts.Run(rts.Config{Program: "fig3b", Cores: 2, Seed: 7}, func(c rts.Ctx) {
		c.For(loc(20, "loop"), 0, 20,
			rts.ForOpt{Schedule: profile.ScheduleDynamic, Chunk: 4},
			func(c rts.Ctx, lo, hi int) { c.Compute(uint64(hi-lo) * 1000) })
	})
}

func countKinds(g *Graph) map[NodeKind]int {
	m := map[NodeKind]int{}
	for n := NodeID(0); n < NodeID(g.NumNodes()); n++ {
		m[g.Kind(n)]++
	}
	return m
}

func countEdgeKinds(g *Graph) map[EdgeKind]int {
	m := map[EdgeKind]int{}
	for i := 0; i < g.NumEdges(); i++ {
		m[g.EdgeKindAt(i)]++
	}
	return m
}

func TestBuildFig3aStructure(t *testing.T) {
	tr := fig3aTrace(t, 2)
	g := Build(tr)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	kinds := countKinds(g)
	// foo: 4 fragments; bar, baz: 1 each = 6 fragments, 2 forks, 1 join.
	if kinds[NodeFragment] != 6 {
		t.Errorf("fragments = %d, want 6", kinds[NodeFragment])
	}
	if kinds[NodeFork] != 2 {
		t.Errorf("forks = %d, want 2", kinds[NodeFork])
	}
	if kinds[NodeJoin] != 1 {
		t.Errorf("joins = %d, want 1", kinds[NodeJoin])
	}
	ek := countEdgeKinds(g)
	if ek[EdgeCreation] != 2 {
		t.Errorf("creation edges = %d, want 2", ek[EdgeCreation])
	}
	if ek[EdgeJoin] != 2 {
		t.Errorf("join edges = %d, want 2", ek[EdgeJoin])
	}
	// Continuations: foo chain F0-k1-F1-k2-F2-j-F3 = 6.
	if ek[EdgeContinuation] != 6 {
		t.Errorf("continuation edges = %d, want 6", ek[EdgeContinuation])
	}
	if got := kinds[NodeFragment] + kinds[NodeChunk]; got != 6 {
		t.Errorf("grain nodes = %d, want 6", got)
	}
}

func TestFragmentNodesCarryWeights(t *testing.T) {
	tr := fig3aTrace(t, 2)
	g := Build(tr)
	bar := g.NodeAt(g.First(g.LookupGrain("R.0")))
	if bar.Kind != NodeFragment || bar.Weight != 4000 {
		t.Errorf("bar node = kind %v weight %d, want fragment/4000", bar.Kind, bar.Weight)
	}
	// Fork nodes carry the child's creation cost.
	for n := NodeID(0); n < NodeID(g.NumNodes()); n++ {
		if g.Kind(n) == NodeFork && g.Weight(n) == 0 {
			t.Errorf("fork node %d has zero weight", n)
		}
	}
}

func TestBuildFig3bLoopStructure(t *testing.T) {
	tr := fig3bTrace(t)
	g := Build(tr)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	kinds := countKinds(g)
	if kinds[NodeChunk] != 5 {
		t.Errorf("chunks = %d, want 5 (20 iters / chunk 4)", kinds[NodeChunk])
	}
	// Each chunk is preceded by a bookkeep node; each thread has one final
	// bookkeep: 5 + 2 = 7.
	if kinds[NodeBookkeep] != 7 {
		t.Errorf("bookkeeps = %d, want 7", kinds[NodeBookkeep])
	}
	// Loop fork + loop join, master has 2 fragments (before/after loop).
	if kinds[NodeFork] != 1 || kinds[NodeJoin] != 1 {
		t.Errorf("fork/join = %d/%d, want 1/1", kinds[NodeFork], kinds[NodeJoin])
	}
	if kinds[NodeFragment] != 2 {
		t.Errorf("master fragments = %d, want 2", kinds[NodeFragment])
	}
	ek := countEdgeKinds(g)
	// One creation edge per participating thread chain.
	if ek[EdgeCreation] != 2 {
		t.Errorf("creation edges = %d, want 2", ek[EdgeCreation])
	}
	// One join edge per thread (final bookkeep → loop join).
	if ek[EdgeJoin] != 2 {
		t.Errorf("join edges = %d, want 2", ek[EdgeJoin])
	}
}

func TestChunkChainAlternates(t *testing.T) {
	tr := fig3bTrace(t)
	g := Build(tr)
	// Walk each thread chain from the loop fork: bookkeep and chunk nodes
	// must alternate, ending with a bookkeep into the join.
	fork := NodeID(-1)
	for n := NodeID(0); n < NodeID(g.NumNodes()); n++ {
		if g.Kind(n) == NodeFork {
			fork = n
		}
	}
	chains := 0
	for _, ei := range g.Out(fork) {
		e := g.EdgeAt(int(ei))
		if e.Kind != EdgeCreation {
			continue
		}
		chains++
		cur := e.To
		wantBk := true
		for {
			n := g.NodeAt(cur)
			if wantBk && n.Kind != NodeBookkeep {
				t.Fatalf("expected bookkeep, got %v", n.Kind)
			}
			if !wantBk && n.Kind != NodeChunk {
				t.Fatalf("expected chunk, got %v", n.Kind)
			}
			var next NodeID = -1
			done := false
			for _, oi := range g.Out(cur) {
				oe := g.EdgeAt(int(oi))
				if oe.Kind == EdgeContinuation {
					next = oe.To
				}
				if oe.Kind == EdgeJoin {
					done = true
				}
			}
			if done {
				if n.Kind != NodeBookkeep {
					t.Fatalf("chain must end at a bookkeep node, got %v", n.Kind)
				}
				break
			}
			if next < 0 {
				t.Fatal("chain broke without reaching the join")
			}
			cur = next
			wantBk = !wantBk
		}
	}
	if chains != 2 {
		t.Fatalf("chains = %d, want 2", chains)
	}
}

func TestGraphIndependentOfMachineSize(t *testing.T) {
	// For a deterministic task-based program, the grain graph is
	// independent of machine size (paper §3.1): node and edge multisets by
	// grain must match between 1-core and 8-core executions.
	prog := func(c rts.Ctx) {
		var rec func(c rts.Ctx, d int)
		rec = func(c rts.Ctx, d int) {
			if d == 0 {
				c.Compute(500)
				return
			}
			c.Spawn(loc(1, "a"), func(c rts.Ctx) { rec(c, d-1) })
			c.Spawn(loc(2, "b"), func(c rts.Ctx) { rec(c, d-1) })
			c.TaskWait()
		}
		rec(c, 4)
	}
	g1 := Build(rts.Run(rts.Config{Program: "p", Cores: 1, Seed: 1}, prog))
	g8 := Build(rts.Run(rts.Config{Program: "p", Cores: 8, Seed: 99}, prog))
	if g1.NumNodes() != g8.NumNodes() || g1.NumEdges() != g8.NumEdges() {
		t.Fatalf("graph shape differs: %d/%d nodes, %d/%d edges",
			g1.NumNodes(), g8.NumNodes(), g1.NumEdges(), g8.NumEdges())
	}
	sig := func(g *Graph) map[string]int {
		m := map[string]int{}
		for n := NodeID(0); n < NodeID(g.NumNodes()); n++ {
			m[string(g.GrainID(g.GrainNum(n)))+"|"+g.Kind(n).String()]++
		}
		return m
	}
	s1, s8 := sig(g1), sig(g8)
	for k, v := range s1 {
		if s8[k] != v {
			t.Errorf("signature mismatch at %s: %d vs %d", k, v, s8[k])
		}
	}
}

func TestReduceFragments(t *testing.T) {
	tr := fig3aTrace(t, 2)
	g := Build(tr)
	rg := ReduceFragments(g)
	if err := rg.Validate(); err != nil {
		t.Fatalf("Validate reduced: %v", err)
	}
	kinds := countKinds(rg)
	// foo's 4 fragments merge to 1; bar and baz stay single: 3 fragments.
	if kinds[NodeFragment] != 3 {
		t.Errorf("reduced fragments = %d, want 3", kinds[NodeFragment])
	}
	// Aggregated weight preserved.
	foo := rg.NodeAt(rg.First(rg.LookupGrain(profile.RootID)))
	if foo.Members != 4 {
		t.Errorf("merged foo members = %d, want 4", foo.Members)
	}
	if foo.Weight != 4000 { // 4 fragments x 1000
		t.Errorf("merged foo weight = %d, want 4000", foo.Weight)
	}
	// Total grain weight is conserved by reduction.
	var wg, wr uint64
	for n := NodeID(0); n < NodeID(g.NumNodes()); n++ {
		wg += g.Weight(n)
	}
	for n := NodeID(0); n < NodeID(rg.NumNodes()); n++ {
		wr += rg.Weight(n)
	}
	if wg != wr {
		t.Errorf("reduction changed total weight: %d -> %d", wg, wr)
	}
}

func TestReduceForks(t *testing.T) {
	tr := fig3aTrace(t, 2)
	rg := ReduceForks(ReduceFragments(Build(tr)))
	if err := rg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	kinds := countKinds(rg)
	// Both forks precede the same join: merged into one.
	if kinds[NodeFork] != 1 {
		t.Errorf("reduced forks = %d, want 1", kinds[NodeFork])
	}
	fork := NodeID(-1)
	for n := NodeID(0); n < NodeID(rg.NumNodes()); n++ {
		if rg.Kind(n) == NodeFork {
			fork = n
		}
	}
	if rg.Members(fork) != 2 {
		t.Errorf("merged fork members = %d, want 2", rg.Members(fork))
	}
	creations := 0
	for _, ei := range rg.Out(fork) {
		if rg.EdgeKindAt(int(ei)) == EdgeCreation {
			creations++
		}
	}
	if creations != 2 {
		t.Errorf("merged fork creation edges = %d, want 2", creations)
	}
}

func TestReduceBookkeeping(t *testing.T) {
	tr := fig3bTrace(t)
	rg := ReduceAll(Build(tr))
	if err := rg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	kinds := countKinds(rg)
	// One merged bookkeep node per thread.
	if kinds[NodeBookkeep] != 2 {
		t.Errorf("reduced bookkeeps = %d, want 2", kinds[NodeBookkeep])
	}
	if kinds[NodeChunk] != 5 {
		t.Errorf("chunks must survive reduction, got %d", kinds[NodeChunk])
	}
	// Chunks no longer point at bookkeeping nodes: they are siblings.
	for i := 0; i < rg.NumEdges(); i++ {
		if rg.Kind(rg.EdgeFrom(i)) == NodeChunk && rg.Kind(rg.EdgeTo(i)) == NodeBookkeep {
			t.Errorf("chunk → bookkeep edge survived reduction")
		}
	}
}

func TestReductionPreservesGrainCount(t *testing.T) {
	tr := fig3aTrace(t, 4)
	g := Build(tr)
	rg := ReduceAll(g)
	// Every grain keeps exactly one representative node.
	grains := map[profile.GrainID]bool{}
	for n := NodeID(0); n < NodeID(rg.NumNodes()); n++ {
		if k := rg.Kind(n); k == NodeFragment || k == NodeChunk {
			id := rg.GrainID(rg.GrainNum(n))
			if grains[id] {
				t.Errorf("grain %s has multiple nodes after reduction", id)
			}
			grains[id] = true
		}
	}
	if len(grains) != 3 {
		t.Errorf("reduced grain count = %d, want 3", len(grains))
	}
}

func TestLayoutProperties(t *testing.T) {
	tr := fig3aTrace(t, 2)
	g := Build(tr)
	Layout(g)
	// All nodes placed, no two nodes at identical positions, grains sized
	// by execution time.
	type pos struct{ x, y float64 }
	seen := map[pos]bool{}
	for id := NodeID(0); id < NodeID(g.NumNodes()); id++ {
		n := g.NodeAt(id)
		if n.W == 0 || n.H == 0 {
			t.Errorf("node %d (%v) not sized", n.ID, n.Kind)
		}
		p := pos{n.X, n.Y}
		if seen[p] {
			t.Errorf("two nodes at %v", p)
		}
		seen[p] = true
	}
	// bar computed 4000, baz 3000: bar's node must be at least as tall.
	bar := g.NodeAt(g.First(g.LookupGrain("R.0")))
	baz := g.NodeAt(g.First(g.LookupGrain("R.1")))
	if bar.H < baz.H {
		t.Errorf("bar height %f < baz height %f despite more work", bar.H, baz.H)
	}
}

func TestLayoutChildrenLocalToParent(t *testing.T) {
	tr := fig3aTrace(t, 2)
	g := Build(tr)
	Layout(g)
	// Children columns are to the right of the parent's column.
	rootX := g.NodeAt(g.First(g.LookupGrain(profile.RootID))).X
	for _, id := range []profile.GrainID{"R.0", "R.1"} {
		if g.NodeAt(g.First(g.LookupGrain(id))).X <= rootX {
			t.Errorf("child %s not to the right of parent", id)
		}
	}
	// Children appear below their creating fork.
	for i := 0; i < g.NumEdges(); i++ {
		if g.EdgeKindAt(i) == EdgeCreation {
			if g.NodeAt(g.EdgeTo(i)).Y <= g.NodeAt(g.EdgeFrom(i)).Y {
				t.Errorf("child node %d not below its fork", g.EdgeTo(i))
			}
		}
	}
}

func TestLayoutDeepRecursion(t *testing.T) {
	tr := rts.Run(rts.Config{Program: "deep", Cores: 4, Seed: 3}, func(c rts.Ctx) {
		var rec func(c rts.Ctx, d int)
		rec = func(c rts.Ctx, d int) {
			if d == 0 {
				c.Compute(100)
				return
			}
			c.Spawn(loc(1, "x"), func(c rts.Ctx) { rec(c, d-1) })
			c.TaskWait()
		}
		rec(c, 30)
	})
	g := Build(tr)
	Layout(g)
	// Depth must show as monotonically increasing X along the spine.
	maxX := 0.0
	for n := NodeID(0); n < NodeID(g.NumNodes()); n++ {
		x, _, _, _ := g.Geometry(n)
		if x > maxX {
			maxX = x
		}
	}
	if maxX < 29*ColWidthForTest {
		t.Errorf("deep recursion flattened: maxX = %f", maxX)
	}
}

// TestTopologicalOrder: read level by level, the level index lists a built
// graph's nodes in a topological order.
func TestTopologicalOrder(t *testing.T) {
	tr := fig3aTrace(t, 2)
	g := Build(tr)
	order := levelOrder(g)
	if len(order) != g.NumNodes() {
		t.Fatalf("topological order covers %d of %d nodes", len(order), g.NumNodes())
	}
	posOf := make([]int, g.NumNodes())
	for i, n := range order {
		posOf[n] = i
	}
	for i := 0; i < g.NumEdges(); i++ {
		from, to := g.EdgeFrom(i), g.EdgeTo(i)
		if posOf[from] >= posOf[to] {
			t.Errorf("edge %d→%d violates topological order", from, to)
		}
	}
}

func TestValidateCatchesCycle(t *testing.T) {
	tr := fig3aTrace(t, 2)
	g := Build(tr)
	// Inject a back edge.
	g.AddEdge(NodeID(g.NumNodes()-1), 0, EdgeContinuation)
	g.AddEdge(0, NodeID(g.NumNodes()-1), EdgeContinuation)
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted a cyclic graph")
	}
}

func TestInlinedTasksStillInGraph(t *testing.T) {
	cfg := rts.Config{Program: "inline", Cores: 1, Seed: 5, Flavor: rts.FlavorICC, ThrottleLimit: 1}
	tr := rts.Run(cfg, func(c rts.Ctx) {
		for i := 0; i < 6; i++ {
			c.Spawn(loc(1, "w"), func(c rts.Ctx) { c.Compute(200) })
		}
		c.TaskWait()
	})
	g := Build(tr)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// All 6 children present regardless of inlining.
	var ids profile.IDArena
	for i := 0; i < 6; i++ {
		id := ids.Child(profile.RootID, i)
		if g.First(g.LookupGrain(id)) < 0 {
			t.Errorf("grain %s missing from graph", id)
		}
	}
}
