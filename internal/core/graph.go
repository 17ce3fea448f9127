// Package core implements the paper's primary contribution: the grain
// graph, a directed acyclic graph that captures the order of creation and
// synchronization between grains (task instances and parallel for-loop
// chunk instances) from a predictable program perspective.
//
// The graph has five node kinds — fragment, fork, join, book-keeping and
// chunk (paper §3.1, Figure 3) — and three control-flow edge kinds —
// creation, join (synchronization) and continuation. Parent and child grains
// are placed in close proximity via creation edges, without timing as a
// placement constraint, so structural anomalies (broken cutoffs, runaway
// recursion) are immediately visible.
//
// Storage is columnar: node and edge attributes live in the parallel
// slices of the embedded GraphStore (see store.go), accessed through
// per-column methods; Node and Edge remain as materialized row views for
// construction and cold paths.
package core

import (
	"fmt"
	"strconv"
	"sync"

	"graingraph/internal/profile"
)

// NodeID indexes a node within its Graph.
type NodeID int

// NodeKind is one of the five grain-graph node types.
type NodeKind int

const (
	// NodeFragment is the execution of a task between creation and
	// synchronization points.
	NodeFragment NodeKind = iota
	// NodeFork denotes task creation (drawn green in the paper).
	NodeFork
	// NodeJoin denotes task synchronization (drawn orange).
	NodeJoin
	// NodeBookkeep is the computation threads perform to divide the
	// iteration space and grab chunks (drawn turquoise).
	NodeBookkeep
	// NodeChunk is the computation of one loop chunk (green rectangles).
	NodeChunk
)

// String names the node kind.
func (k NodeKind) String() string {
	switch k {
	case NodeFragment:
		return "fragment"
	case NodeFork:
		return "fork"
	case NodeJoin:
		return "join"
	case NodeBookkeep:
		return "bookkeep"
	case NodeChunk:
		return "chunk"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is the materialized row view of one grain-graph vertex: the input
// to AddNode and the output of NodeAt. Fragment, book-keeping and chunk
// nodes are weighted with metrics measured during execution; fork and join
// nodes carry the parallelization overheads paid at them.
type Node struct {
	ID   NodeID
	Kind NodeKind

	// Grain is the owning grain: the task a fragment belongs to (fork/join
	// nodes belong to the task that executed them), or the chunk's ID.
	// GrainNum is the same grain as a number (see Graph): NodeAt fills
	// both, AddNode resolves Grain, AddNodeNum trusts GrainNum.
	Grain    profile.GrainID
	GrainNum int32
	// Loop is set for bookkeep/chunk nodes and fork/join nodes expanded
	// from a BoundaryLoop.
	Loop profile.LoopID
	// Seq orders sibling nodes within their context (fragment index within
	// the task, chunk sequence within the loop).
	Seq int

	Label      string
	Start, End profile.Time
	// Weight is the node's time contribution: execution time for fragments
	// and chunks, creation cost for forks, synchronization overhead for
	// joins, delivery cost for book-keeping nodes.
	Weight profile.Time
	Core   int

	// Members counts how many original nodes a grouped (reduced) node
	// represents; 1 for unreduced nodes.
	Members int

	// Critical marks membership of the graph's critical path (set by the
	// metrics pass).
	Critical bool

	// Layout coordinates (set by Layout, zero before it; used by the
	// exporters). AddNode ignores them.
	X, Y, W, H float64
}

// EdgeKind is one of the three control-flow edge types.
type EdgeKind int

const (
	// EdgeCreation connects a fork node to the first fragment of a child
	// (green in the paper).
	EdgeCreation EdgeKind = iota
	// EdgeJoin connects the last fragment of a synchronizing child to the
	// parent's join node (orange).
	EdgeJoin
	// EdgeContinuation connects fragments to fork or join nodes within the
	// same context (black).
	EdgeContinuation
)

// String names the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeCreation:
		return "creation"
	case EdgeJoin:
		return "join"
	case EdgeContinuation:
		return "continuation"
	default:
		return fmt.Sprintf("EdgeKind(%d)", int(k))
	}
}

// Edge is the materialized row view of one directed grain-graph edge.
type Edge struct {
	From, To NodeID
	Kind     EdgeKind
	Critical bool
}

// Graph is the grain graph: a DAG stored columnarly in the embedded
// GraphStore, plus an index from grains to their node spans.
//
// Nodes name their grain by number. The numbers are the trace's (see
// profile.Numbering): Tasks[i] is i, Chunks[j] is len(Tasks)+j. A graph
// assembled by hand may name grains its trace does not record; those are
// numbered from NumGrains() on, in the order the graph first saw them.
type Graph struct {
	Trace *profile.Trace
	GraphStore

	// FirstNode / LastNode give a grain's entry and exit nodes by grain
	// number (first and last fragment for tasks; the chunk node itself for
	// chunks), -1 for a grain without nodes. Build and AdoptGraph size them
	// to the trace's grain count; hand-assembled graphs grow them through
	// SetSpan, and windowed graphs leave them nil. Read through First unless
	// the length is known.
	FirstNode []NodeID
	LastNode  []NodeID

	// ids is the trace's id table; extra holds the IDs of the grains the
	// trace does not record, extraNum their numbers. A trace's records name
	// only recorded grains, so only the grains a hand-assembled graph (or a
	// lod index decoded beside it) names by ID ever reach them, with the
	// ancestors their path IDs name; extraMu makes that rare path safe
	// beside concurrent analyses of a shared graph.
	ids      []profile.GrainID
	extraMu  sync.RWMutex
	extra    []profile.GrainID
	extraNum map[profile.GrainID]int32

	// owners caches the owner-task table (owners.go).
	ownersMu sync.Mutex
	owners   *Owners

	// derived marks a graph whose rows Build made: a node without a
	// stored label derives it from its columns and the trace (labelOf).
	derived bool

	// lastLoopJoin carries the most recent loop's join node between
	// expandLoop and the builder (construction is single-goroutine).
	lastLoopJoin NodeID
}

// newGraph allocates an empty graph bound to tr.
func newGraph(tr *profile.Trace) *Graph {
	g := &Graph{Trace: tr}
	if tr != nil {
		g.ids = tr.Numbering().IDs
	}
	return g
}

// NewGraph allocates an empty graph bound to tr, for callers that assemble
// graphs by hand (synthetic what-if scenarios, determinism tests, windowed
// views) rather than through Build.
func NewGraph(tr *profile.Trace) *Graph { return newGraph(tr) }

// noSpans returns an entry/exit table of n grains without nodes.
func noSpans(n int) []NodeID {
	t := make([]NodeID, n)
	for i := range t {
		t[i] = -1
	}
	return t
}

// NumGrainNums returns the size of the graph's grain number space: the
// trace's grains plus the ones only this graph names.
func (g *Graph) NumGrainNums() int {
	g.extraMu.RLock()
	defer g.extraMu.RUnlock()
	return len(g.ids) + len(g.extra)
}

// GrainID returns the ID of grain number num.
func (g *Graph) GrainID(num int32) profile.GrainID {
	if int(num) < len(g.ids) {
		return g.ids[num]
	}
	g.extraMu.RLock()
	defer g.extraMu.RUnlock()
	return g.extra[int(num)-len(g.ids)]
}

// LookupGrain returns the number of the grain with the given ID, or -1
// when neither the trace nor this graph knows it.
func (g *Graph) LookupGrain(id profile.GrainID) int32 {
	if g.Trace != nil {
		if n := g.Trace.Lookup(id); n >= 0 {
			return n
		}
	}
	g.extraMu.RLock()
	defer g.extraMu.RUnlock()
	if n, ok := g.extraNum[id]; ok {
		return n
	}
	return -1
}

// InternGrain is LookupGrain that numbers an unknown ID instead of
// failing — how a hand-assembled graph names a grain no trace records.
func (g *Graph) InternGrain(id profile.GrainID) int32 {
	if n := g.LookupGrain(id); n >= 0 {
		return n
	}
	g.extraMu.Lock()
	defer g.extraMu.Unlock()
	if n, ok := g.extraNum[id]; ok {
		return n
	}
	n := int32(len(g.ids) + len(g.extra))
	if g.extraNum == nil {
		g.extraNum = make(map[profile.GrainID]int32)
	}
	g.extraNum[id] = n
	g.extra = append(g.extra, id)
	return n
}

// First returns grain num's entry node, or -1.
func (g *Graph) First(num int32) NodeID {
	if int(num) < len(g.FirstNode) {
		return g.FirstNode[num]
	}
	return -1
}

// AddNode appends a node (its ID field is ignored and assigned fresh),
// resolving its Grain ID to a number, and returns its ID.
// FirstNode/LastNode bookkeeping is the caller's responsibility.
func (g *Graph) AddNode(n Node) NodeID {
	n.GrainNum = g.InternGrain(n.Grain)
	return g.AddNodeNum(n)
}

// AddNodeNum is AddNode for a caller that knows the grain's number: it
// trusts n.GrainNum and ignores n.Grain.
func (g *Graph) AddNodeNum(n Node) NodeID {
	g.owners = nil
	return g.appendNode(n)
}

// NodeAt materializes node n as a Node value — the convenient row view
// for cold paths (export, tests). Hot loops should read the individual
// columns instead.
func (g *Graph) NodeAt(n NodeID) Node {
	nd := g.NodeRow(n)
	nd.Label = g.labelOf(n)
	return nd
}

// NodeRow is NodeAt without the label: the row view for a caller that
// prints every node's label with AppendLabel rather than holding a string
// per node.
func (g *Graph) NodeRow(n NodeID) Node {
	nd := g.GraphStore.nodeAt(n)
	nd.Grain = g.GrainID(nd.GrainNum)
	return nd
}

// labelOf returns node n's label: the one stored for it, or on a built
// graph the one its columns name — "<task ID>/<fragment index>" for a
// fragment, "fork"/"join" ("loop <loc>"/"loop join" where the task's
// boundary is a loop), "bk" for book-keeping and "[lo,hi)" for a chunk.
// Storing no label saves a built graph 16 B per node and the bytes of
// every fragment label.
func (g *Graph) labelOf(n NodeID) string {
	s := &g.GraphStore
	if int(n) < len(s.label) && s.label[n] != "" {
		return s.label[n]
	}
	if !g.derived {
		return ""
	}
	kind, num, seq := NodeKind(s.kind[n]), s.grain[n], int(s.seq[n])
	tr := g.Trace
	switch kind {
	case NodeFragment, NodeChunk:
		var buf [64]byte
		return string(g.appendNumbered(buf[:0], n))
	case NodeFork, NodeJoin:
		if int(num) < len(tr.Tasks) && seq < len(tr.Tasks[num].Boundaries) &&
			tr.Tasks[num].Boundaries[seq].Kind == profile.BoundaryLoop {
			if kind == NodeJoin {
				return "loop join"
			}
			var loc profile.SrcLoc
			if l := tr.Loop(profile.LoopID(s.loop[n])); l != nil {
				loc = l.Loc
			}
			return "loop " + loc.String()
		}
		return kind.String()
	case NodeBookkeep:
		return "bk"
	}
	return ""
}

// AppendLabel appends node n's label, the one NodeAt reports, to b. A
// built graph's fragment and chunk labels, one per grain, are formatted
// straight into b, so a caller that prints every label builds no string
// for them.
func (g *Graph) AppendLabel(b []byte, n NodeID) []byte {
	s := &g.GraphStore
	if k := NodeKind(s.kind[n]); g.derived && (k == NodeFragment || k == NodeChunk) &&
		(int(n) >= len(s.label) || s.label[n] == "") {
		return g.appendNumbered(b, n)
	}
	return append(b, g.labelOf(n)...)
}

// appendNumbered appends the label a built graph's columns name for
// fragment or chunk n: "<task ID>/<fragment index>" or "[lo,hi)".
func (g *Graph) appendNumbered(b []byte, n NodeID) []byte {
	s := &g.GraphStore
	num := s.grain[n]
	if NodeKind(s.kind[n]) == NodeFragment {
		b = append(b, g.GrainID(num)...)
		b = append(b, '/')
		return strconv.AppendInt(b, int64(s.seq[n]), 10)
	}
	tr := g.Trace
	if j := int(num) - len(tr.Tasks); j >= 0 && j < len(tr.Chunks) {
		ck := tr.Chunks[j]
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(ck.Lo), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(ck.Hi), 10)
		b = append(b, ')')
	}
	return b
}

// AddEdge appends an edge.
func (g *Graph) AddEdge(from, to NodeID, kind EdgeKind) { g.appendEdge(from, to, kind) }

// Validate checks structural invariants: the graph is a DAG, edges respect
// the paper's connection constraints (a fork connects to exactly one child
// fragment via creation; at least one fragment connects to every join;
// continuation edges stay within a context). It returns the first violation.
func (g *Graph) Validate() error {
	// Connection constraints.
	for n := NodeID(0); n < NodeID(g.NumNodes()); n++ {
		switch g.Kind(n) {
		case NodeFork:
			creations := 0
			for _, ei := range g.Out(n) {
				if g.EdgeKindAt(int(ei)) == EdgeCreation {
					creations++
				}
			}
			if g.Members(n) == 1 && creations != 1 {
				return fmt.Errorf("fork node %d has %d creation edges, want 1", n, creations)
			}
			if g.Members(n) > 1 && creations < 1 {
				return fmt.Errorf("grouped fork node %d has no creation edges", n)
			}
		case NodeJoin:
			joins := 0
			for _, ei := range g.In(n) {
				if g.EdgeKindAt(int(ei)) == EdgeJoin {
					joins++
				}
			}
			if joins == 0 {
				return fmt.Errorf("join node %d has no incoming join edges", n)
			}
		}
	}
	// Acyclicity via Kahn's algorithm.
	indeg := make([]int, g.NumNodes())
	for i := 0; i < g.NumEdges(); i++ {
		indeg[g.EdgeTo(i)]++
	}
	queue := make([]NodeID, 0, g.NumNodes())
	for i := range indeg {
		if indeg[i] == 0 {
			queue = append(queue, NodeID(i))
		}
	}
	visited := 0
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		visited++
		for _, ei := range g.Out(n) {
			to := g.EdgeTo(int(ei))
			indeg[to]--
			if indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	if visited != g.NumNodes() {
		return fmt.Errorf("grain graph has a cycle: visited %d of %d nodes", visited, g.NumNodes())
	}
	return nil
}

// CriticalGrains reports, by grain number, which grains have a fragment or
// chunk node on the marked critical path. Run metrics.Analyze first;
// before that no node carries the Critical flag and every entry is false.
func (g *Graph) CriticalGrains() []bool {
	crit := make([]bool, g.NumGrainNums())
	for n := NodeID(0); n < NodeID(g.NumNodes()); n++ {
		if g.Critical(n) && (g.Kind(n) == NodeFragment || g.Kind(n) == NodeChunk) {
			crit[g.grain[n]] = true
		}
	}
	return crit
}
