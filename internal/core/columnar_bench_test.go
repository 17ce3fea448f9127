package core_test

import (
	"testing"

	. "graingraph/internal/core"
	"graingraph/internal/profile"
	"graingraph/internal/rts"
	"graingraph/internal/workloads"
)

// The benchmarks below compare the columnar GraphStore against a replica
// of the representation it replaced — one heap-allocated node object per
// vertex with per-node adjacency slices of edge pointers — on the two hot
// analysis passes the refactor targeted: the critical-path DP and the
// whole-graph field scan behind the scatter metric. The workload is the
// paper's Sort benchmark (scaled down so the one-time simulation stays
// cheap), whose ~thousand-grain graph is the shape the analyzers see most.

// ptrNode mirrors the pre-columnar *Node: every vertex its own allocation,
// adjacency as slices of *ptrEdge.
type ptrNode struct {
	ID         NodeID
	Kind       NodeKind
	Grain      profile.GrainID
	Loop       profile.LoopID
	Seq        int
	Label      string
	Start, End profile.Time
	Weight     profile.Time
	Core       int
	Members    int
	Critical   bool
	X, Y, W, H float64
	Out, In    []*ptrEdge
}

type ptrEdge struct {
	From, To *ptrNode
	Kind     EdgeKind
	Critical bool
}

type ptrGraph struct {
	Nodes []*ptrNode
	Edges []*ptrEdge
}

// pointerReplica materializes g in the pointer-based representation.
func pointerReplica(g *Graph) *ptrGraph {
	pg := &ptrGraph{Nodes: make([]*ptrNode, g.NumNodes())}
	for id := NodeID(0); id < NodeID(g.NumNodes()); id++ {
		n := g.NodeAt(id)
		pg.Nodes[id] = &ptrNode{
			ID: n.ID, Kind: n.Kind, Grain: n.Grain, Loop: n.Loop, Seq: n.Seq,
			Label: n.Label, Start: n.Start, End: n.End, Weight: n.Weight,
			Core: n.Core, Members: n.Members, Critical: n.Critical,
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.EdgeAt(i)
		pe := &ptrEdge{From: pg.Nodes[e.From], To: pg.Nodes[e.To], Kind: e.Kind}
		pe.From.Out = append(pe.From.Out, pe)
		pe.To.In = append(pe.To.In, pe)
		pg.Edges = append(pg.Edges, pe)
	}
	return pg
}

// sortGraph simulates the scaled-down Sort workload once and builds its
// grain graph.
func sortGraph(b *testing.B) *Graph {
	b.Helper()
	inst := workloads.NewSort(workloads.SortParams{
		N: 1 << 20, SeqCutoff: 4096, MergeCutoff: 16384, InsertionCutoff: 20, Seed: 11,
	})
	tr := rts.Run(rts.Config{Program: inst.Name(), Cores: 48, Seed: 1}, inst.Program())
	if err := inst.Verify(); err != nil {
		b.Fatal(err)
	}
	return Build(tr)
}

// levelOrder lists g's nodes level by level: a topological order.
func levelOrder(g *Graph) []NodeID {
	order := make([]NodeID, 0, g.NumNodes())
	for l := 0; l < g.NumLevels(); l++ {
		for _, n := range g.LevelNodes(l) {
			order = append(order, NodeID(n))
		}
	}
	return order
}

// criticalColumnar is the critical-path DP over the columnar store: one
// flat weight column, CSR adjacency, distances indexed by NodeID.
func criticalColumnar(g *Graph, topo []NodeID, dist []profile.Time) profile.Time {
	for i := range dist {
		dist[i] = 0
	}
	var best profile.Time
	for _, n := range topo {
		d := dist[n] + g.Weight(n)
		if d > best {
			best = d
		}
		for _, ei := range g.Out(n) {
			if to := g.EdgeTo(int(ei)); d > dist[to] {
				dist[to] = d
			}
		}
	}
	return best
}

// criticalPointer is the same DP chasing node and edge pointers.
func criticalPointer(pg *ptrGraph, topo []NodeID, dist []profile.Time) profile.Time {
	for i := range dist {
		dist[i] = 0
	}
	var best profile.Time
	for _, id := range topo {
		n := pg.Nodes[id]
		d := dist[n.ID] + n.Weight
		if d > best {
			best = d
		}
		for _, e := range n.Out {
			if d > dist[e.To.ID] {
				dist[e.To.ID] = d
			}
		}
	}
	return best
}

func BenchmarkCriticalPathColumnar(b *testing.B) {
	g := sortGraph(b)
	topo := levelOrder(g)
	dist := make([]profile.Time, g.NumNodes())
	g.Out(0) // force CSR construction outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	var sink profile.Time
	for i := 0; i < b.N; i++ {
		sink = criticalColumnar(g, topo, dist)
	}
	_ = sink
}

func BenchmarkCriticalPathPointer(b *testing.B) {
	g := sortGraph(b)
	topo := levelOrder(g)
	pg := pointerReplica(g)
	dist := make([]profile.Time, g.NumNodes())
	b.ReportAllocs()
	b.ResetTimer()
	var sink profile.Time
	for i := 0; i < b.N; i++ {
		sink = criticalPointer(pg, topo, dist)
	}
	_ = sink
}

// scatterScan is the field pattern behind the scatter metric and the
// exporters' per-node loops: touch kind, core, weight and span of every
// node. Columnar reads stream four flat arrays; the pointer layout
// dereferences every node object.

func BenchmarkScatterScanColumnar(b *testing.B) {
	g := sortGraph(b)
	perCore := make([]profile.Time, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range perCore {
			perCore[j] = 0
		}
		var span profile.Time
		for n := NodeID(0); n < NodeID(g.NumNodes()); n++ {
			if g.Kind(n) == NodeFork || g.Kind(n) == NodeJoin {
				continue
			}
			perCore[g.Core(n)] += g.Weight(n)
			if e := g.End(n); e > span {
				span = e
			}
		}
		_ = span
	}
}

func BenchmarkScatterScanPointer(b *testing.B) {
	g := sortGraph(b)
	pg := pointerReplica(g)
	perCore := make([]profile.Time, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range perCore {
			perCore[j] = 0
		}
		var span profile.Time
		for _, n := range pg.Nodes {
			if n.Kind == NodeFork || n.Kind == NodeJoin {
				continue
			}
			perCore[n.Core] += n.Weight
			if n.End > span {
				span = n.End
			}
		}
		_ = span
	}
}

// The full critical-path pass — materialize the representation, then run
// the DP over it — is where the allocation difference shows: columnar
// assembly amortizes into a handful of growing slices, the pointer
// representation pays one allocation per node and per edge.

func BenchmarkCriticalPathPassColumnar(b *testing.B) {
	src := sortGraph(b)
	topo := levelOrder(src)
	n, m := src.NumNodes(), src.NumEdges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := &Graph{}
		for id := NodeID(0); id < NodeID(n); id++ {
			g.AddNode(src.NodeAt(id))
		}
		for j := 0; j < m; j++ {
			e := src.EdgeAt(j)
			g.AddEdge(e.From, e.To, e.Kind)
		}
		dist := make([]profile.Time, n)
		if criticalColumnar(g, topo, dist) == 0 {
			b.Fatal("empty critical path")
		}
	}
}

func BenchmarkCriticalPathPassPointer(b *testing.B) {
	src := sortGraph(b)
	topo := levelOrder(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg := pointerReplica(src)
		dist := make([]profile.Time, len(pg.Nodes))
		if criticalPointer(pg, topo, dist) == 0 {
			b.Fatal("empty critical path")
		}
	}
}

// Graph assembly: the allocation story. Columnar appendNode/appendEdge
// amortize into a handful of growing slices; the pointer representation
// pays one allocation per node plus per-edge adjacency growth.

func BenchmarkAssembleColumnar(b *testing.B) {
	src := sortGraph(b)
	n, m := src.NumNodes(), src.NumEdges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewGraph(src.Trace)
		for id := NodeID(0); id < NodeID(n); id++ {
			s.AddNodeNum(src.NodeAt(id))
		}
		for j := 0; j < m; j++ {
			e := src.EdgeAt(j)
			s.AddEdge(e.From, e.To, e.Kind)
		}
		if s.NumNodes() != n {
			b.Fatal("bad assembly")
		}
	}
}

func BenchmarkAssemblePointer(b *testing.B) {
	src := sortGraph(b)
	n, m := src.NumNodes(), src.NumEdges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg := &ptrGraph{}
		for id := NodeID(0); id < NodeID(n); id++ {
			nd := src.NodeAt(id)
			pg.Nodes = append(pg.Nodes, &ptrNode{
				ID: nd.ID, Kind: nd.Kind, Grain: nd.Grain, Loop: nd.Loop,
				Seq: nd.Seq, Label: nd.Label, Start: nd.Start, End: nd.End,
				Weight: nd.Weight, Core: nd.Core, Members: nd.Members,
			})
		}
		for j := 0; j < m; j++ {
			e := src.EdgeAt(j)
			pe := &ptrEdge{From: pg.Nodes[e.From], To: pg.Nodes[e.To], Kind: e.Kind}
			pe.From.Out = append(pe.From.Out, pe)
			pe.To.In = append(pe.To.In, pe)
			pg.Edges = append(pg.Edges, pe)
		}
		if len(pg.Nodes) != n {
			b.Fatal("bad assembly")
		}
	}
}
