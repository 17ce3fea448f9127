package lod

import (
	"fmt"

	"graingraph/internal/colenc"
	"graingraph/internal/core"
	"graingraph/internal/profile"
)

// Sidecar codec for the summary index: the columnar .ggp v2 format
// persists a built Index after first analysis so a later decode skips the
// full Build pass. Encode/DecodeIndex serialize exactly the fields Build
// computes — the grain-number → slot index is rebuilt from the id column, and
// the graph handle is supplied by the caller at decode time. Staleness is
// handled a layer down (ggp content keys); DecodeIndex still validates
// the column structure against the graph it is attached to, so a payload
// that slipped past the key check can not index out of bounds.

// schema is the sidecar's layout: the index's own columns, in file order.
// The per-slot columns come in two runs with the CSRs between them.
func (ix *Index) schema() []colenc.Col {
	return []colenc.Col{
		colenc.SameRows(
			colenc.Strs(&ix.ids),
			colenc.Ivar(&ix.depth),
			colenc.Ivar(&ix.par),
		),
		colenc.U32(&ix.childOff),
		colenc.U32(&ix.childIdx),
		colenc.U32(&ix.ownerOf),
		colenc.U32(&ix.nodeOff),
		colenc.U32(&ix.nodeIdx),
		colenc.SameRows(
			colenc.Ivar(&ix.ownWork),
			colenc.Bool(&ix.critSelf),
			colenc.Ivar(&ix.probSelf),
			colenc.Ivar(&ix.subWork),
			colenc.Ivar(&ix.subNodes),
			colenc.Ivar(&ix.subTasks),
			colenc.Ivar(&ix.subProbs),
			colenc.Bool(&ix.critSub),
			colenc.U64(&ix.startMin),
			colenc.U64(&ix.endMax),
		),
	}
}

// Encode serializes the index columns; a built index's grain IDs are
// derived from its grain numbers for the id column.
func (ix *Index) Encode() []byte {
	enc := *ix
	if enc.ids == nil {
		enc.ids = make([]profile.GrainID, len(ix.grain))
		for si := range enc.ids {
			enc.ids[si] = ix.id(int32(si))
		}
	}
	return colenc.Encode(enc.schema()...)
}

// DecodeIndex reconstructs an index from an encoded payload and attaches
// it to g. Structural mismatches — column length disagreement, CSR bounds
// violations, node ownership not covering g — yield an error; the caller
// falls back to Build.
func DecodeIndex(g *core.Graph, data []byte) (*Index, error) {
	ix := &Index{g: g}
	if err := colenc.Decode(data, ix.schema()...); err != nil {
		return nil, fmt.Errorf("lod: decode: %w", err)
	}
	n := len(ix.ids)
	if len(ix.ownWork) != n {
		return nil, fmt.Errorf("lod: decode: rollup columns have %d rows, want %d", len(ix.ownWork), n)
	}
	// A parent sits exactly one level up, as Build lays the slots out; that
	// is also what bounds every walk up the par column.
	for si, p := range ix.par {
		if p < -1 || int(p) >= n {
			return nil, fmt.Errorf("lod: decode: parent slot %d out of range", p)
		}
		if p >= 0 && ix.depth[p] != ix.depth[si]-1 {
			return nil, fmt.Errorf("lod: decode: slot %d at depth %d has its parent at depth %d", si, ix.depth[si], ix.depth[p])
		}
	}
	if err := checkCSR("children", ix.childOff, ix.childIdx, n, n); err != nil {
		return nil, err
	}
	nn := g.NumNodes()
	if len(ix.ownerOf) != nn {
		return nil, fmt.Errorf("lod: decode: ownerOf covers %d nodes, graph has %d", len(ix.ownerOf), nn)
	}
	for _, o := range ix.ownerOf {
		if o < 0 || int(o) >= n {
			return nil, fmt.Errorf("lod: decode: owner slot %d out of range", o)
		}
	}
	if err := checkCSR("nodes", ix.nodeOff, ix.nodeIdx, n, nn); err != nil {
		return nil, err
	}

	// Slot → grain number. A slot's own nodes carry the number already (a
	// chunk node carries the chunk's, so those are skipped); only a slot
	// that owns no task node — an ancestor interned by the parent closure —
	// or whose ID disagrees is resolved by ID.
	ix.grain = make([]int32, n)
	for si, id := range ix.ids {
		num := int32(-1)
		for _, nd := range ix.nodeIdx[ix.nodeOff[si]:ix.nodeOff[si+1]] {
			if g.Kind(core.NodeID(nd)) != core.NodeChunk {
				num = g.GrainNum(core.NodeID(nd))
				break
			}
		}
		if num < 0 || g.GrainID(num) != id {
			num = g.InternGrain(id)
		}
		ix.grain[si] = num
	}
	if dup := ix.indexSlots(); dup >= 0 {
		return nil, fmt.Errorf("lod: decode: duplicate slot id %q", ix.ids[dup])
	}
	return ix, nil
}

// checkCSR validates an offset/index CSR pair: n+1 monotonic offsets
// spanning the index column, every index within [0, bound).
func checkCSR(name string, off, idx []int32, n, bound int) error {
	if len(off) != n+1 || off[0] != 0 || int(off[n]) != len(idx) {
		return fmt.Errorf("lod: decode: %s CSR offsets malformed", name)
	}
	for i := 0; i < n; i++ {
		if off[i+1] < off[i] {
			return fmt.Errorf("lod: decode: %s CSR offsets not monotonic", name)
		}
	}
	for _, v := range idx {
		if v < 0 || int(v) >= bound {
			return fmt.Errorf("lod: decode: %s CSR index %d out of range [0,%d)", name, v, bound)
		}
	}
	return nil
}
