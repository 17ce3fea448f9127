package core

import "graingraph/internal/profile"

// GraphStore is the columnar (struct-of-arrays) node and edge storage
// behind Graph. Every node attribute lives in its own parallel slice
// indexed by NodeID, and every edge attribute in a slice indexed by edge
// index; adjacency is a CSR-style pair of flat arrays (offsets + edge
// indices) built lazily. Compared to the previous pointer-per-node
// []*Node layout this removes one heap object and one pointer chase per
// node on the hot critical-path and reduction loops, keeps same-typed
// attributes densely packed for scans that touch only a column or two
// (weights, kinds), and makes a finished graph cheaply shareable across
// concurrent analyses — readers touch disjoint immutable slices.
//
// All mutation happens through appendNode/appendEdge, the narrow setters
// (critical flags) and Layout (geometry); consumers outside this
// package read through the accessor methods, which are trivially
// inlinable single-slice loads.
type GraphStore struct {
	// Node columns, indexed by NodeID.
	kind     []uint8
	grain    []int32 // owning grain's number; the Graph holds the id tables
	loop     []int32
	seq      []int32
	start    []profile.Time
	end      []profile.Time
	weight   []profile.Time
	core     []int32
	members  []int32
	critical []bool
	// label holds the labels a graph sets itself (lod windows, reduced
	// groups, hand-assembled graphs); it stays nil until the first node
	// with a label is appended. A built graph stores none: NodeAt derives
	// its labels from the columns (see Graph.labelOf).
	label []string
	// Layout geometry columns, read by the exporters. Layout, their only
	// writer, allocates them; a node they do not cover (every node, before
	// a layout) reads as a zero rectangle.
	geoX, geoY, geoW, geoH []float64

	// Edge columns, indexed by edge index.
	edgeFrom     []int32
	edgeTo       []int32
	edgeKind     []uint8
	edgeCritical []bool

	// CSR adjacency: node n's outgoing edge indices are
	// outIdx[outOff[n]:outOff[n+1]] (likewise inOff/inIdx for incoming).
	// Built lazily by Out/In; nil when stale.
	outOff, outIdx []int32
	inOff, inIdx   []int32

	// Topological level index: level l's nodes (ascending NodeID) are
	// levelNodes[levelOff[l]:levelOff[l+1]], and nodeLevel[n] is node n's
	// own level. Built lazily by NumLevels / LevelNodes / Level (see
	// levels.go); nil when stale.
	levelOff, levelNodes []int32
	nodeLevel            []int32
}

// NumNodes returns the node count.
func (s *GraphStore) NumNodes() int { return len(s.kind) }

// NumEdges returns the edge count.
func (s *GraphStore) NumEdges() int { return len(s.edgeFrom) }

// Kind returns node n's kind.
func (s *GraphStore) Kind(n NodeID) NodeKind { return NodeKind(s.kind[n]) }

// GrainNum returns the number of node n's owning grain.
func (s *GraphStore) GrainNum(n NodeID) int32 { return s.grain[n] }

// Loop returns node n's loop ID (meaningful for bookkeep/chunk nodes and
// loop-expanded fork/join nodes).
func (s *GraphStore) Loop(n NodeID) profile.LoopID { return profile.LoopID(s.loop[n]) }

// Seq returns node n's sibling sequence number.
func (s *GraphStore) Seq(n NodeID) int { return int(s.seq[n]) }

// Start returns node n's start time.
func (s *GraphStore) Start(n NodeID) profile.Time { return s.start[n] }

// End returns node n's end time.
func (s *GraphStore) End(n NodeID) profile.Time { return s.end[n] }

// Weight returns node n's time contribution.
func (s *GraphStore) Weight(n NodeID) profile.Time { return s.weight[n] }

// Core returns the core that executed node n.
func (s *GraphStore) Core(n NodeID) int { return int(s.core[n]) }

// Members returns how many original nodes a grouped node represents.
func (s *GraphStore) Members(n NodeID) int { return int(s.members[n]) }

// Critical reports whether node n lies on the marked critical path.
func (s *GraphStore) Critical(n NodeID) bool { return s.critical[n] }

// SetCritical marks (or clears) node n's critical-path membership.
func (s *GraphStore) SetCritical(n NodeID, v bool) { s.critical[n] = v }

// Geometry returns node n's layout rectangle, zero until Layout places n.
func (s *GraphStore) Geometry(n NodeID) (x, y, w, h float64) {
	if int(n) >= len(s.geoX) {
		return 0, 0, 0, 0
	}
	return s.geoX[n], s.geoY[n], s.geoW[n], s.geoH[n]
}

// nodeAt materializes node n's row without its Grain ID and label, which
// only the Graph can name (Graph.NodeAt).
func (s *GraphStore) nodeAt(n NodeID) Node {
	x, y, w, h := s.Geometry(n)
	return Node{
		ID:       n,
		Kind:     s.Kind(n),
		GrainNum: s.grain[n],
		Loop:     s.Loop(n),
		Seq:      s.Seq(n),
		Start:    s.start[n],
		End:      s.end[n],
		Weight:   s.weight[n],
		Core:     s.Core(n),
		Members:  s.Members(n),
		Critical: s.critical[n],
		X:        x,
		Y:        y,
		W:        w,
		H:        h,
	}
}

// EdgeAt materializes edge i as an Edge value.
func (s *GraphStore) EdgeAt(i int) Edge {
	return Edge{
		From:     NodeID(s.edgeFrom[i]),
		To:       NodeID(s.edgeTo[i]),
		Kind:     EdgeKind(s.edgeKind[i]),
		Critical: s.edgeCritical[i],
	}
}

// EdgeFrom returns edge i's source node.
func (s *GraphStore) EdgeFrom(i int) NodeID { return NodeID(s.edgeFrom[i]) }

// EdgeTo returns edge i's target node.
func (s *GraphStore) EdgeTo(i int) NodeID { return NodeID(s.edgeTo[i]) }

// EdgeKindAt returns edge i's kind.
func (s *GraphStore) EdgeKindAt(i int) EdgeKind { return EdgeKind(s.edgeKind[i]) }

// EdgeCritical reports whether edge i lies on the marked critical path.
func (s *GraphStore) EdgeCritical(i int) bool { return s.edgeCritical[i] }

// SetEdgeCritical marks (or clears) edge i's critical-path membership.
func (s *GraphStore) SetEdgeCritical(i int, v bool) { s.edgeCritical[i] = v }

// WeightColumn returns the node weight column itself, indexed by NodeID,
// for readers that keep it: read, don't mutate. Nothing writes a built
// graph's weights (a reduction writes its own new store), so the column
// stays what the graph was built with.
func (s *GraphStore) WeightColumn() []profile.Time { return s.weight }

// Reserve grows the node and edge columns to hold at least nodes and edges
// entries without reallocating. Build calls it with its node/edge estimate
// so million-node assembly grows each column once instead of ~20 doublings
// per column (slice memmove and the GC scans of half-dead backing arrays
// dominated large builds).
func (s *GraphStore) Reserve(nodes, edges int) {
	if n := nodes - cap(s.kind); n > 0 {
		s.kind = append(make([]uint8, 0, nodes), s.kind...)
		s.grain = append(make([]int32, 0, nodes), s.grain...)
		s.loop = append(make([]int32, 0, nodes), s.loop...)
		s.seq = append(make([]int32, 0, nodes), s.seq...)
		s.start = append(make([]profile.Time, 0, nodes), s.start...)
		s.end = append(make([]profile.Time, 0, nodes), s.end...)
		s.weight = append(make([]profile.Time, 0, nodes), s.weight...)
		s.core = append(make([]int32, 0, nodes), s.core...)
		s.members = append(make([]int32, 0, nodes), s.members...)
		s.critical = append(make([]bool, 0, nodes), s.critical...)
	}
	if n := edges - cap(s.edgeFrom); n > 0 {
		s.edgeFrom = append(make([]int32, 0, edges), s.edgeFrom...)
		s.edgeTo = append(make([]int32, 0, edges), s.edgeTo...)
		s.edgeKind = append(make([]uint8, 0, edges), s.edgeKind...)
		s.edgeCritical = append(make([]bool, 0, edges), s.edgeCritical...)
	}
}

// appendNode appends a node row and returns its ID. A zero Members is
// normalized to 1 (an unreduced node represents itself). The row's
// geometry is not stored: only Layout writes geometry. The label column
// starts at the first node that carries a label, earlier rows reading "".
func (s *GraphStore) appendNode(n Node) NodeID {
	id := NodeID(len(s.kind))
	if n.Members == 0 {
		n.Members = 1
	}
	s.kind = append(s.kind, uint8(n.Kind))
	s.grain = append(s.grain, n.GrainNum)
	s.loop = append(s.loop, int32(n.Loop))
	s.seq = append(s.seq, int32(n.Seq))
	if n.Label != "" && s.label == nil {
		s.label = make([]string, id, cap(s.kind))
	}
	if s.label != nil {
		s.label = append(s.label, n.Label)
	}
	s.start = append(s.start, n.Start)
	s.end = append(s.end, n.End)
	s.weight = append(s.weight, n.Weight)
	s.core = append(s.core, int32(n.Core))
	s.members = append(s.members, int32(n.Members))
	s.critical = append(s.critical, n.Critical)
	s.invalidateCSR()
	return id
}

// appendEdge appends an edge row.
func (s *GraphStore) appendEdge(from, to NodeID, kind EdgeKind) {
	s.edgeFrom = append(s.edgeFrom, int32(from))
	s.edgeTo = append(s.edgeTo, int32(to))
	s.edgeKind = append(s.edgeKind, uint8(kind))
	s.edgeCritical = append(s.edgeCritical, false)
	s.invalidateCSR()
}

// invalidateCSR drops the adjacency and level arrays; they rebuild on next
// use.
func (s *GraphStore) invalidateCSR() {
	if s.outOff == nil && s.inOff == nil && s.levelOff == nil {
		return // nothing built yet: the common case, once per appended row
	}
	s.outOff, s.outIdx = nil, nil
	s.inOff, s.inIdx = nil, nil
	s.levelOff, s.levelNodes = nil, nil
	s.nodeLevel = nil
}

// buildCSR (re)builds both adjacency indexes as flat offset/index arrays:
// two passes over the edge columns, four allocations total, independent of
// node degree distribution. The first pass leaves each node's offset at
// the end of its range; the second walks the edges backwards, placing each
// at its node's offset and stepping the offset down, so every range fills
// in ascending edge order and the offsets end at their starts.
func (s *GraphStore) buildCSR() {
	n, e := len(s.kind), len(s.edgeFrom)
	outOff := make([]int32, n+1)
	inOff := make([]int32, n+1)
	for i := 0; i < e; i++ {
		outOff[s.edgeFrom[i]]++
		inOff[s.edgeTo[i]]++
	}
	for i := 1; i <= n; i++ {
		outOff[i] += outOff[i-1]
		inOff[i] += inOff[i-1]
	}
	outIdx := make([]int32, e)
	inIdx := make([]int32, e)
	for i := e - 1; i >= 0; i-- {
		f, t := s.edgeFrom[i], s.edgeTo[i]
		outOff[f]--
		outIdx[outOff[f]] = int32(i)
		inOff[t]--
		inIdx[inOff[t]] = int32(i)
	}
	s.outOff, s.outIdx = outOff, outIdx
	s.inOff, s.inIdx = inOff, inIdx
}

// Out returns the indexes of n's outgoing edges (pass them to EdgeTo /
// EdgeKindAt / EdgeAt). The returned slice aliases the CSR arrays: read,
// don't mutate. Building the index is not goroutine-safe; concurrent
// readers must force it first (call Out once) exactly as the what-if
// engine does.
func (s *GraphStore) Out(n NodeID) []int32 {
	if s.outOff == nil {
		s.buildCSR()
	}
	return s.outIdx[s.outOff[n]:s.outOff[n+1]]
}

// In returns the indexes of n's incoming edges, with the same aliasing and
// concurrency contract as Out.
func (s *GraphStore) In(n NodeID) []int32 {
	if s.inOff == nil {
		s.buildCSR()
	}
	return s.inIdx[s.inOff[n]:s.inOff[n+1]]
}
