package metrics

import (
	"testing"

	"graingraph/internal/core"
	"graingraph/internal/profile"
)

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
	lenA, pathA := CriticalPathPool(gA, nil)
	lenB, pathB := CriticalPathPool(gB, nil)

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
	_, path := CriticalPathPool(g, nil)
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
	length, path := CriticalPathPool(g, nil)
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

// TestCriticalPathOverWeightVector: CriticalPathOverPool projects a
// hypothetical weight vector without touching the recorded weights or the
// Critical flags — the contract the what-if engine relies on.
func TestCriticalPathOverWeightVector(t *testing.T) {
	g := tiedGraph([][2]core.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	base, _ := CriticalPathOverPool(g, nil, nil)
	if base != 18 {
		t.Fatalf("baseline length = %d, want 18", base)
	}
	// Halve node 1's branch, inflate node 2's: the path must reroute.
	w := g.Weights()
	w[1] = 2
	w[2] = 40
	length, path := CriticalPathOverPool(g, w, nil)
	if length != 48 { // 5 + 40 + 3
		t.Fatalf("projected length = %d, want 48", length)
	}
	if len(path) != 3 || path[1] != 2 {
		t.Fatalf("projected path = %v, want through node 2", path)
	}
	for n := core.NodeID(0); n < core.NodeID(g.NumNodes()); n++ {
		if g.Critical(n) {
			t.Fatal("CriticalPathOverPool mutated Critical flags")
		}
		if n == 1 && g.Weight(n) != 10 {
			t.Fatal("CriticalPathOverPool mutated recorded weights")
		}
	}
}
