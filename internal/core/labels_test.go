package core_test

import (
	"fmt"
	"sort"
	"strconv"
	"testing"

	. "graingraph/internal/core"
	"graingraph/internal/lod"
	"graingraph/internal/profile"
	"graingraph/internal/rts"
)

// labelTrace runs a program with every node kind: nested forks and joins,
// a dynamic loop on three threads (chunks and book-keeping), a static one
// and a fork and join after them.
func labelTrace(t *testing.T) *profile.Trace {
	t.Helper()
	var tree func(c rts.Ctx, depth int)
	tree = func(c rts.Ctx, depth int) {
		c.Compute(500)
		if depth == 0 {
			return
		}
		for i := 0; i < 3; i++ {
			c.Spawn(loc(30+depth, "tree"), func(c rts.Ctx) { tree(c, depth-1) })
		}
		c.TaskWait()
		c.Compute(200)
	}
	return rts.Run(rts.Config{Program: "labels", Cores: 3, Seed: 5}, func(c rts.Ctx) {
		tree(c, 3)
		c.For(loc(40, "dyn"), 0, 37, rts.ForOpt{Schedule: profile.ScheduleDynamic, Chunk: 5},
			func(c rts.Ctx, lo, hi int) { c.Compute(uint64(hi-lo) * 300) })
		c.For(loc(42, "static"), 10, 30, rts.ForOpt{Schedule: profile.ScheduleStatic},
			func(c rts.Ctx, lo, hi int) { c.Compute(uint64(hi-lo) * 100) })
		c.Spawn(loc(41, "after"), func(c rts.Ctx) { tree(c, 1) })
		c.TaskWait()
	})
}

// oldLabels is how Build once labelled the nodes it made, in the order it
// made them: per task, each fragment "<task ID>/<index>" and then its
// boundary's node, "fork" or "join"; a loop boundary expands to
// "loop <loc>", "loop join", and per participating thread its chunks in
// start order as "bk", "[lo,hi)" pairs and a final "bk".
func oldLabels(tr *profile.Trace) []string {
	var out []string
	for _, task := range tr.Tasks {
		for fi := range task.Fragments {
			out = append(out, string(task.ID)+"/"+strconv.Itoa(fi))
			if fi >= len(task.Boundaries) {
				continue
			}
			switch b := task.Boundaries[fi]; b.Kind {
			case profile.BoundaryFork:
				out = append(out, "fork")
			case profile.BoundaryJoin:
				out = append(out, "join")
			case profile.BoundaryLoop:
				loop := tr.Loop(b.Loop)
				out = append(out, fmt.Sprintf("loop %s", loop.Loc), "loop join")
				byThread := map[int][]*profile.ChunkRecord{}
				for _, ck := range tr.Chunks {
					if ck.Loop == b.Loop {
						byThread[ck.Thread] = append(byThread[ck.Thread], ck)
					}
				}
				for _, thread := range loop.Threads {
					cks := byThread[thread]
					sort.Slice(cks, func(i, j int) bool { return cks[i].Start < cks[j].Start })
					for _, ck := range cks {
						out = append(out, "bk", fmt.Sprintf("[%d,%d)", ck.Lo, ck.Hi))
					}
					out = append(out, "bk")
				}
			}
		}
	}
	return out
}

// storedCopy assembles g again by hand with every label stored, as Build
// once stored them.
func storedCopy(g *Graph, labels []string) *Graph {
	c := NewGraph(g.Trace)
	for n := NodeID(0); n < NodeID(g.NumNodes()); n++ {
		nd := g.NodeAt(n)
		nd.Label = labels[n]
		c.AddNodeNum(nd)
	}
	for i := 0; i < g.NumEdges(); i++ {
		c.AddEdge(g.EdgeFrom(i), g.EdgeTo(i), g.EdgeKindAt(i))
	}
	c.FirstNode = append([]NodeID(nil), g.FirstNode...)
	c.LastNode = append([]NodeID(nil), g.LastNode...)
	return c
}

func sameLabels(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("%s: %d nodes, the stored-label graph has %d", what, got.NumNodes(), want.NumNodes())
	}
	for n := NodeID(0); n < NodeID(got.NumNodes()); n++ {
		if g, w := got.NodeAt(n).Label, want.NodeAt(n).Label; g != w {
			t.Fatalf("%s: node %d (%s) is labelled %q, want %q", what, n, got.Kind(n), g, w)
		}
		for _, gr := range []*Graph{got, want} {
			appendsLabel(t, what, gr, n, want.NodeAt(n).Label)
		}
	}
}

// appendsLabel fails t unless g's AppendLabel appends label for node n
// after what a buffer holds already.
func appendsLabel(t *testing.T, what string, g *Graph, n NodeID, label string) {
	t.Helper()
	if got := string(g.AppendLabel([]byte("<"), n)); got != "<"+label {
		t.Fatalf("%s: node %d (%s) appends %q after \"<\", want %q", what, n, g.Kind(n), got, "<"+label)
	}
}

// TestDerivedLabels: a built graph stores no labels, and every label it
// derives is the one Build once stored; so are the labels of a graph
// reduced from it and of a lod window over it, which store their own.
// AppendLabel appends the same label as NodeAt reports on every one.
func TestDerivedLabels(t *testing.T) {
	tr := labelTrace(t)
	g := Build(tr)
	want := oldLabels(tr)
	if g.NumNodes() != len(want) {
		t.Fatalf("built %d nodes, the old labelling names %d", g.NumNodes(), len(want))
	}
	kinds := map[NodeKind]int{}
	for n := NodeID(0); n < NodeID(g.NumNodes()); n++ {
		kinds[g.Kind(n)]++
		if got := g.NodeAt(n).Label; got != want[n] {
			t.Fatalf("node %d (%s) derives label %q, Build stored %q", n, g.Kind(n), got, want[n])
		}
		appendsLabel(t, "built", g, n, want[n])
		if row := g.NodeRow(n); row.Label != "" || row.Grain != g.NodeAt(n).Grain {
			t.Fatalf("node %d: NodeRow gives label %q and grain %q, want no label and grain %q", n, row.Label, row.Grain, g.NodeAt(n).Grain)
		}
	}
	for k := NodeFragment; k <= NodeChunk; k++ {
		if kinds[k] == 0 {
			t.Fatalf("the trace makes no %s node", k)
		}
	}

	stored := storedCopy(g, want)
	sameLabels(t, "reduced", ReduceAll(g), ReduceAll(stored))
	for _, root := range []profile.GrainID{profile.RootID, "R.1"} {
		opt := lod.WindowOptions{Root: root, Depth: 2, Top: 2}
		got, _, err := lod.Build(g, nil).Window(opt)
		if err != nil {
			t.Fatal(err)
		}
		w, _, err := lod.Build(stored, nil).Window(opt)
		if err != nil {
			t.Fatal(err)
		}
		sameLabels(t, "window at "+string(root), got, w)
	}
}
