package metrics

import (
	"math/rand"
	"slices"
	"testing"

	"graingraph/internal/core"
	"graingraph/internal/profile"
	"graingraph/internal/runpool"
)

// markPath runs the critical-path DP over g's recorded weights and marks
// the path, as Analyze does.
func markPath(g *core.Graph) (profile.Time, []core.NodeID) {
	b := NewCPBaseline(g, nil, nil)
	return b.Span(), markCritical(b, nil)
}

// tiedGraph builds a diamond with two equal-weight branches — n1 and n2 tie
// for every longest path — inserting edges in the given order. Node IDs are
// identical across orderings; only edge insertion order varies, which is
// exactly what the what-if engine's repeated recomputations must be immune
// to.
func tiedGraph(edgeOrder [][2]core.NodeID) *core.Graph {
	g := core.NewGraph(&profile.Trace{Program: "tied"})
	weights := []profile.Time{5, 10, 10, 3}
	for i, w := range weights {
		g.AddNode(core.Node{Kind: core.NodeFragment, Grain: profile.GrainID(rune('a' + i)), Weight: w})
	}
	for _, e := range edgeOrder {
		g.AddEdge(e[0], e[1], core.EdgeContinuation)
	}
	return g
}

// TestCriticalPathTieBreakDeterministic: with several sinks tied for the
// longest path, the reported endpoint and the marked critical set must not
// depend on edge insertion order — lowest NodeID wins both the endpoint and
// each predecessor tie.
func TestCriticalPathTieBreakDeterministic(t *testing.T) {
	forward := [][2]core.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}}
	shuffled := [][2]core.NodeID{{2, 3}, {0, 2}, {1, 3}, {0, 1}}

	gA := tiedGraph(forward)
	gB := tiedGraph(shuffled)
	lenA, pathA := markPath(gA)
	lenB, pathB := markPath(gB)

	if lenA != lenB {
		t.Fatalf("path lengths differ: %d vs %d", lenA, lenB)
	}
	if lenA != 18 { // 5 + 10 + 3
		t.Fatalf("path length = %d, want 18", lenA)
	}
	if len(pathA) != len(pathB) {
		t.Fatalf("path node counts differ: %v vs %v", pathA, pathB)
	}
	for i := range pathA {
		if pathA[i] != pathB[i] {
			t.Fatalf("paths differ at %d: %v vs %v", i, pathA, pathB)
		}
	}
	// The tied predecessor (n1 vs n2) resolves to the lower NodeID.
	want := []core.NodeID{0, 1, 3}
	for i, n := range want {
		if pathA[i] != n {
			t.Fatalf("path = %v, want %v (lowest-NodeID tie-break)", pathA, want)
		}
	}
	// Both graphs mark the same critical node set.
	for i := core.NodeID(0); i < core.NodeID(gA.NumNodes()); i++ {
		if gA.Critical(i) != gB.Critical(i) {
			t.Errorf("node %d critical flag differs between orderings", i)
		}
	}
}

// TestCriticalPathTiedSinksLowestID: two disconnected chains of identical
// length — the endpoint tie resolves to the lowest NodeID sink.
func TestCriticalPathTiedSinksLowestID(t *testing.T) {
	g := core.NewGraph(&profile.Trace{Program: "sinks"})
	for i := 0; i < 4; i++ {
		g.AddNode(core.Node{Kind: core.NodeFragment, Weight: 7})
	}
	// Chains 0→1 and 2→3, both length 14; sinks 1 and 3 tie.
	g.AddEdge(0, 1, core.EdgeContinuation)
	g.AddEdge(2, 3, core.EdgeContinuation)
	_, path := markPath(g)
	if len(path) == 0 || path[len(path)-1] != 1 {
		t.Fatalf("path = %v, want endpoint 1 (lowest tied sink)", path)
	}
}

// TestCriticalPathAllZeroWeights: an all-zero-weight graph has no critical
// path — nothing is marked, instead of node 0 being flagged arbitrarily.
func TestCriticalPathAllZeroWeights(t *testing.T) {
	g := core.NewGraph(&profile.Trace{Program: "zero"})
	for i := 0; i < 3; i++ {
		g.AddNode(core.Node{Kind: core.NodeFragment, Weight: 0})
	}
	g.AddEdge(0, 1, core.EdgeContinuation)
	g.AddEdge(1, 2, core.EdgeContinuation)
	length, path := markPath(g)
	if length != 0 || path != nil {
		t.Fatalf("zero-weight graph: length %d path %v, want 0 and nil", length, path)
	}
	for n := core.NodeID(0); n < core.NodeID(g.NumNodes()); n++ {
		if g.Critical(n) {
			t.Errorf("node %d marked critical in an all-zero-weight graph", n)
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		if g.EdgeCritical(i) {
			t.Errorf("edge %d marked critical in an all-zero-weight graph", i)
		}
	}
}

// TestCriticalPathOverWeightVector: a baseline over a hypothetical weight
// vector projects the path without touching the recorded weights or the
// Critical flags — the contract the what-if engine relies on.
func TestCriticalPathOverWeightVector(t *testing.T) {
	g := tiedGraph([][2]core.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if base := CriticalSpan(g, nil, nil); base != 18 {
		t.Fatalf("baseline length = %d, want 18", base)
	}
	// Halve node 1's branch, inflate node 2's: the path must reroute.
	w := slices.Clone(g.WeightColumn())
	w[1] = 2
	w[2] = 40
	if length := CriticalSpan(g, w, nil); length != 48 { // 5 + 40 + 3
		t.Fatalf("projected length = %d, want 48", length)
	}
	if path := NewCPBaseline(g, w, nil).Path(); len(path) != 3 || path[1] != 2 {
		t.Fatalf("projected path = %v, want through node 2", path)
	}
	for n := core.NodeID(0); n < core.NodeID(g.NumNodes()); n++ {
		if g.Critical(n) {
			t.Fatal("projecting a weight vector mutated Critical flags")
		}
		if n == 1 && g.Weight(n) != 10 {
			t.Fatal("projecting a weight vector mutated recorded weights")
		}
	}
}

// oracleCriticalPath is the serial DP with a predecessor column that the
// shared baseline replaced: distances and predecessors filled in topological order
// (lowest predecessor NodeID on ties, pred -1 against the implicit initial
// distance 0), the heaviest finish with the lowest NodeID as sink, and the
// path read back through pred.
func oracleCriticalPath(g *core.Graph, topo []core.NodeID) (profile.Time, []core.NodeID) {
	n := g.NumNodes()
	w := g.WeightColumn()
	dist := make([]profile.Time, n)
	pred := make([]core.NodeID, n)
	for _, nd := range topo {
		var d profile.Time
		p := core.NodeID(-1)
		for _, ei := range g.In(nd) {
			from := g.EdgeFrom(int(ei))
			df := dist[from] + w[from]
			if df > d || (df == d && (p < 0 || from < p)) {
				d, p = df, from
			}
		}
		dist[nd], pred[nd] = d, p
	}
	var best profile.Time
	end := core.NodeID(-1)
	for nd := 0; nd < n; nd++ {
		if f := dist[nd] + w[nd]; f > best || (f == best && end < 0) {
			best, end = f, core.NodeID(nd)
		}
	}
	if best == 0 {
		return 0, nil
	}
	var path []core.NodeID
	for nd := end; nd >= 0; nd = pred[nd] {
		path = append([]core.NodeID{nd}, path...)
	}
	return best, path
}

// bruteLongest enumerates every path of a small DAG and returns the
// heaviest path weight.
func bruteLongest(g *core.Graph) profile.Time {
	var walk func(n core.NodeID) profile.Time
	walk = func(n core.NodeID) profile.Time {
		var best profile.Time
		for _, ei := range g.Out(n) {
			best = max(best, walk(g.EdgeTo(int(ei))))
		}
		return g.Weight(n) + best
	}
	var best profile.Time
	for n := 0; n < g.NumNodes(); n++ {
		best = max(best, walk(core.NodeID(n)))
	}
	return best
}

// TestSharedBaselinePathMatchesOracle checks the critical path recovered
// from the shared baseline's distances against the predecessor-column DP
// and a brute-force longest path, on random DAGs built for ties: all-zero
// weights, weights from {0, 1, 2} so parallel paths tie, several sinks,
// node IDs that are not a topological order, shuffled edge insertion, and
// parallel edges. Every pool size reports the same path.
func TestSharedBaselinePathMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	pool := runpool.New(4)
	for iter := 0; iter < 400; iter++ {
		n := 1 + rng.Intn(12)
		topo := make([]core.NodeID, n)
		for i, p := range rng.Perm(n) {
			topo[i] = core.NodeID(p)
		}
		g := core.NewGraph(&profile.Trace{Program: "oracle"})
		zero := iter%10 == 0
		for i := 0; i < n; i++ {
			var w profile.Time
			if !zero {
				w = profile.Time(rng.Intn(3))
			}
			g.AddNode(core.Node{Kind: core.NodeFragment, Weight: w})
		}
		var edges [][2]core.NodeID
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					edges = append(edges, [2]core.NodeID{topo[i], topo[j]})
					if rng.Intn(8) == 0 {
						edges = append(edges, [2]core.NodeID{topo[i], topo[j]})
					}
				}
			}
		}
		rng.Shuffle(len(edges), func(a, b int) { edges[a], edges[b] = edges[b], edges[a] })
		for _, e := range edges {
			g.AddEdge(e[0], e[1], core.EdgeContinuation)
		}

		wantLen, wantPath := oracleCriticalPath(g, topo)
		if brute := bruteLongest(g); brute != wantLen {
			t.Fatalf("iter %d: oracle length %d, brute force %d", iter, wantLen, brute)
		}
		for _, p := range []*runpool.Runner{nil, pool} {
			b := NewCPBaseline(g, nil, p)
			if b.Span() != wantLen || !slices.Equal(b.Path(), wantPath) {
				t.Fatalf("iter %d: baseline span %d path %v, oracle %d %v", iter, b.Span(), b.Path(), wantLen, wantPath)
			}
			if span := CriticalSpan(g, nil, p); span != wantLen {
				t.Fatalf("iter %d: CriticalSpan %d, oracle %d", iter, span, wantLen)
			}
		}
	}
}

// TestAnalyzeKeepsOneBaseline: the report keeps the DP its critical path
// came from, for its own graph only.
func TestAnalyzeKeepsOneBaseline(t *testing.T) {
	g := randomDAGTrace(t, 3, 4)
	rep := Analyze(g.Trace, g, nil, Options{})
	b := rep.CriticalBaseline(g)
	if b == nil {
		t.Fatal("Analyze kept no critical-path baseline")
	}
	if b.Span() != rep.CriticalPathLength || !slices.Equal(b.Path(), rep.CriticalNodes) {
		t.Errorf("baseline span %d path %v, report %d %v", b.Span(), b.Path(), rep.CriticalPathLength, rep.CriticalNodes)
	}
	if rep.CriticalBaseline(core.Build(g.Trace)) != nil {
		t.Error("report handed its baseline out for another graph")
	}
	if &b.Weights()[0] != &g.WeightColumn()[0] {
		t.Error("baseline copied the graph's weight column")
	}
}
