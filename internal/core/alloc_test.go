package core_test

import (
	"runtime"
	"testing"

	. "graingraph/internal/core"
)

// TestBuildAllocsFlatInTasks pins Build's allocation count: columns are
// reserved once, boundary nodes live in one flat table and labels are not
// stored, so a trace with 64 times the tasks costs no more allocations.
func TestBuildAllocsFlatInTasks(t *testing.T) {
	var counts []float64
	for _, depth := range []int{4, 7, 10} {
		tr := benchTrace(depth)
		tr.Numbering() // indexed once per trace, not per Build
		counts = append(counts, testing.AllocsPerRun(5, func() { Build(tr) }))
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Fatalf("Build allocates %v times for 31, 255 and 2047 tasks; want one count for all", counts)
	}
}

// TestGeometryAfterLayout: a graph reads a zero rectangle for every node
// until Layout places it, whether Build made the graph or AdoptGraph took
// its columns; after Layout every node has a size.
func TestGeometryAfterLayout(t *testing.T) {
	tr := benchTrace(4)
	built := Build(tr)
	src := Build(tr)
	adopted, err := AdoptGraph(tr, src.ExportColumns(), src.FirstNode, src.LastNode)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{"built": built, "adopted": adopted} {
		for n := NodeID(0); n < NodeID(g.NumNodes()); n++ {
			x, y, w, h := g.Geometry(n)
			nd := g.NodeAt(n)
			if x != 0 || y != 0 || w != 0 || h != 0 || nd.X != 0 || nd.Y != 0 || nd.W != 0 || nd.H != 0 {
				t.Fatalf("%s graph: node %d has geometry (%g,%g,%g,%g) before Layout", name, n, x, y, w, h)
			}
		}
		Layout(g)
		for n := NodeID(0); n < NodeID(g.NumNodes()); n++ {
			_, _, w, h := g.Geometry(n)
			if nd := g.NodeAt(n); w <= 0 || h <= 0 || nd.W != w || nd.H != h {
				t.Fatalf("%s graph: node %d has size %gx%g (row %gx%g) after Layout", name, n, w, h, nd.W, nd.H)
			}
		}
	}

	// Only Layout writes geometry: a row added with a rectangle reads zero
	// until the next layout, on a graph laid out before it was added too.
	g := Build(tr)
	Layout(g)
	id := g.AddNodeNum(Node{Kind: NodeFragment, X: 1, Y: 2, W: 3, H: 4})
	if x, y, w, h := g.Geometry(id); x != 0 || y != 0 || w != 0 || h != 0 {
		t.Fatalf("added node's geometry = (%g,%g,%g,%g) before Layout, want zero", x, y, w, h)
	}
	Layout(g)
	if _, _, w, h := g.Geometry(id); w <= 0 || h <= 0 {
		t.Fatalf("added node's size = %gx%g after Layout", w, h)
	}
}

// TestBuildBytesPerNode pins the graph's size. Build allocates its node
// and edge columns and the entry/exit tables, reserved once: 68.2 B per
// node on this tree, bounded at 72. It stores no labels: they derive from
// the columns (Graph.NodeAt), where a stored label column and the bytes of
// every fragment label took 97 B per node. The node columns once also
// carried a copy of every fragment's and chunk's hardware counters, 56 B
// per node that nothing read (153 B in all): the trace holds them. A
// column that copies what the trace holds or what the columns name breaks
// the bound.
func TestBuildBytesPerNode(t *testing.T) {
	tr := benchTrace(10)
	tr.Numbering() // indexed once per trace, not per Build
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	nodes := 0
	for range runs {
		nodes += Build(tr).NumNodes()
	}
	runtime.ReadMemStats(&after)
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / float64(nodes)
	t.Logf("Build allocates %.1f B per node (%d nodes)", perNode, nodes/runs)
	if perNode > 72 {
		t.Errorf("Build allocates %.1f B per node; the bound is 72", perNode)
	}
}
