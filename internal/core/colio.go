package core

import (
	"fmt"

	"graingraph/internal/profile"
)

// This file exports a built graph's construction-time columns and adopts
// them back into a Graph without replaying core.Build. No artifact stores
// a graph any more (a .ggp v2 file holds the trace, and every reader
// builds the graph from it); the pair stays only for the benchmark's
// core.adopt_s layer probe, and goes with it.

// GraphColumns is the read-only column view of a built graph's
// construction-time state. All slices alias the store: read, don't mutate.
// Labels are not a column: the adopted graph derives them as Build's does.
type GraphColumns struct {
	Kind    []uint8
	Grain   []int32 // grain numbers
	Loop    []int32
	Seq     []int32
	Start   []profile.Time
	End     []profile.Time
	Weight  []profile.Time
	Core    []int32
	Members []int32

	EdgeFrom []int32
	EdgeTo   []int32
	EdgeKind []uint8
}

// ExportColumns returns the serializable column view of g.
func (g *Graph) ExportColumns() GraphColumns {
	s := &g.GraphStore
	return GraphColumns{
		Kind:     s.kind,
		Grain:    s.grain,
		Loop:     s.loop,
		Seq:      s.seq,
		Start:    s.start,
		End:      s.end,
		Weight:   s.weight,
		Core:     s.core,
		Members:  s.members,
		EdgeFrom: s.edgeFrom,
		EdgeTo:   s.edgeTo,
		EdgeKind: s.edgeKind,
	}
}

// AdoptGraph assembles a Graph directly from exported columns, taking
// ownership of every slice. It performs the structural validation a decoder
// needs — column lengths agree, enum values are in range, edge endpoints
// are in bounds, grain numbers name grains of tr, entry/exit nodes exist
// (first and last are indexed by grain number, -1 for none; nil for a
// graph without the tables), and the edges close no cycle. The acyclicity
// check is the level index the analysis builds anyway, built here. Critical
// flags are allocated zeroed; geometry waits for Layout.
func AdoptGraph(tr *profile.Trace, c GraphColumns, first, last []NodeID) (*Graph, error) {
	n := len(c.Kind)
	for name, l := range map[string]int{
		"grain":   len(c.Grain),
		"loop":    len(c.Loop),
		"seq":     len(c.Seq),
		"start":   len(c.Start),
		"end":     len(c.End),
		"weight":  len(c.Weight),
		"core":    len(c.Core),
		"members": len(c.Members),
	} {
		if l != n {
			return nil, fmt.Errorf("core: adopt: %s column has %d rows, want %d", name, l, n)
		}
	}
	e := len(c.EdgeFrom)
	if len(c.EdgeTo) != e || len(c.EdgeKind) != e {
		return nil, fmt.Errorf("core: adopt: edge columns disagree (%d/%d/%d)", e, len(c.EdgeTo), len(c.EdgeKind))
	}
	grains := tr.NumGrains()
	for i := 0; i < n; i++ {
		if c.Kind[i] > uint8(NodeChunk) {
			return nil, fmt.Errorf("core: adopt: node %d has invalid kind %d", i, c.Kind[i])
		}
		if c.Grain[i] < 0 || int(c.Grain[i]) >= grains {
			return nil, fmt.Errorf("core: adopt: node %d grain number %d out of range [0,%d)", i, c.Grain[i], grains)
		}
		if c.Members[i] < 1 {
			return nil, fmt.Errorf("core: adopt: node %d has members %d < 1", i, c.Members[i])
		}
	}
	for i := 0; i < e; i++ {
		if c.EdgeFrom[i] < 0 || int(c.EdgeFrom[i]) >= n || c.EdgeTo[i] < 0 || int(c.EdgeTo[i]) >= n {
			return nil, fmt.Errorf("core: adopt: edge %d endpoints (%d,%d) out of range [0,%d)", i, c.EdgeFrom[i], c.EdgeTo[i], n)
		}
		if c.EdgeKind[i] > uint8(EdgeContinuation) {
			return nil, fmt.Errorf("core: adopt: edge %d has invalid kind %d", i, c.EdgeKind[i])
		}
	}
	for _, t := range [...]struct {
		name  string
		nodes []NodeID
	}{{"first", first}, {"last", last}} {
		if t.nodes != nil && len(t.nodes) != grains {
			return nil, fmt.Errorf("core: adopt: %s-node table covers %d grains, want %d", t.name, len(t.nodes), grains)
		}
		for num, nd := range t.nodes {
			if nd < -1 || int(nd) >= n {
				return nil, fmt.Errorf("core: adopt: %s node %d of grain %d out of range [0,%d)", t.name, nd, num, n)
			}
		}
	}
	g := newGraph(tr)
	g.derived = true
	g.FirstNode, g.LastNode = first, last
	s := &g.GraphStore
	s.kind = c.Kind
	s.grain = c.Grain
	s.loop = c.Loop
	s.seq = c.Seq
	s.start = c.Start
	s.end = c.End
	s.weight = c.Weight
	s.core = c.Core
	s.members = c.Members
	s.critical = make([]bool, n)
	s.edgeFrom = c.EdgeFrom
	s.edgeTo = c.EdgeTo
	s.edgeKind = c.EdgeKind
	s.edgeCritical = make([]bool, e)
	if err := s.indexLevels(); err != nil {
		return nil, fmt.Errorf("core: adopt: %w", err)
	}
	return g, nil
}
