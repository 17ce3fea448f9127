package ggp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"reflect"
	"slices"
	"testing"

	"graingraph/internal/cache"
	"graingraph/internal/colenc"
	"graingraph/internal/core"
	"graingraph/internal/profile"
	"graingraph/internal/runpool"
)

// legacyNodes and legacyEdges are sections 0x18 and 0x1A as older writers
// laid them out; 0x19 was a v2Counters of the nodes' hardware counters.
// The nodes section is the grain dictionary (task IDs, then chunk grain
// IDs) and one row per graph node, naming its grain by dictionary index;
// the edges section is one row per edge, then per dictionary grain its
// entry and exit node (-1 for none). The reader skips all three; these
// tests decode them to show that the graph every reader now builds is the
// graph those files carry.
type legacyNodes struct {
	dict []profile.GrainID
	g    *core.GraphColumns
}

func (n *legacyNodes) schema() []colenc.Col {
	return []colenc.Col{
		colenc.Strs(&n.dict),
		colenc.SameRows(
			colenc.U8(&n.g.Kind),
			colenc.U32(&n.g.Grain),
			colenc.Ivar(&n.g.Loop),
			colenc.Ivar(&n.g.Seq),
			colenc.Ivar(&n.g.Core),
			colenc.Ivar(&n.g.Members),
			colenc.Strs(&n.g.Label),
			colenc.U64(&n.g.Start),
			colenc.U64(&n.g.End),
			colenc.U64(&n.g.Weight),
		),
	}
}

type legacyEdges struct {
	g           *core.GraphColumns
	first, last []core.NodeID
}

func (e *legacyEdges) schema() []colenc.Col {
	return []colenc.Col{
		colenc.SameRows(colenc.U32(&e.g.EdgeFrom), colenc.U32(&e.g.EdgeTo), colenc.U8(&e.g.EdgeKind)),
		colenc.SameRows(colenc.Ivar(&e.first), colenc.Ivar(&e.last)),
	}
}

// legacyGraph holds an older artifact's three graph sections; the nodes
// and edges sections share the graph columns.
type legacyGraph struct {
	cols  core.GraphColumns
	nodes legacyNodes
	ctr   v2Counters
	edges legacyEdges
}

func newLegacyGraph() *legacyGraph {
	l := &legacyGraph{}
	l.nodes.g, l.edges.g = &l.cols, &l.cols
	return l
}

func (l *legacyGraph) sections() []v2ContentSection {
	return []v2ContentSection{
		{id: secV2Nodes, span: "nodes", cols: &l.nodes},
		{id: secV2NodeCounters, span: "node counters", cols: &l.ctr},
		{id: secV2Edges, span: "edges", cols: &l.edges},
	}
}

// decodeLegacy decodes an older artifact's meta and graph sections.
func decodeLegacy(t *testing.T, data []byte) (*v2Meta, *legacyGraph) {
	t.Helper()
	secs, _, err := walkV2(data)
	if err != nil {
		t.Fatal(err)
	}
	meta, l := &v2Meta{}, newLegacyGraph()
	for _, s := range append(l.sections(), v2ContentSection{id: secV2Meta, cols: meta}) {
		i := slices.IndexFunc(secs, func(d v2Section) bool { return d.id == s.id })
		if i < 0 {
			t.Fatalf("no section 0x%02x", s.id)
		}
		if err := colenc.Decode(secs[i].payload, s.cols.schema()...); err != nil {
			t.Fatalf("section 0x%02x: %v", s.id, err)
		}
	}
	return meta, l
}

// payloadAt returns the offset in data of the payload of secs[i], the
// sections walkV2 framed from data.
func payloadAt(secs []v2Section, i int) int {
	off := len(Magic) + 1
	for j, s := range secs {
		off += 1 + len(binary.AppendUvarint(nil, uint64(len(s.payload))))
		if j == i {
			return off
		}
		off += len(s.payload) + 4
	}
	panic("no such section")
}

// withoutSection re-frames a v2 artifact without its id sections: every
// other section is copied byte for byte, and the trailer keeps the content
// key and counts the sections that remain.
func withoutSection(t *testing.T, data []byte, id byte) []byte {
	t.Helper()
	secs, key, err := walkV2(data)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(Magic), Version2)
	frame := func(id byte, payload []byte, crc uint32) {
		out = binary.AppendUvarint(append(out, id), uint64(len(payload)))
		out = binary.LittleEndian.AppendUint32(append(out, payload...), crc)
	}
	n := 0
	for _, s := range secs {
		if s.id != id && s.id != secV2Trailer {
			frame(s.id, s.payload, s.crc)
			n++
		}
	}
	trailer := binary.AppendUvarint(binary.LittleEndian.AppendUint32(nil, key), uint64(n))
	frame(secV2Trailer, trailer, crc32.Checksum(trailer, castagnoli))
	return out
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenDropsOnlyLevels pins what the writer stopped storing first:
// seed.v2s-nolevels.ggp is seed.v2s.ggp minus its 0x20 level-index
// sidecar, with the trailer's section count and checksum updated and the
// content key unchanged, since sidecars do not feed it.
func TestGoldenDropsOnlyLevels(t *testing.T) {
	old, cur := readGolden(t, "seed.v2s.ggp"), readGolden(t, "seed.v2s-nolevels.ggp")
	if !bytes.Equal(withoutSection(t, old, secV2Levels), cur) {
		t.Fatal("seed.v2s-nolevels.ggp is not seed.v2s.ggp without its levels sidecar")
	}
	_, oldKey, _ := walkV2(old)
	_, curKey, _ := walkV2(cur)
	if oldKey != curKey {
		t.Errorf("content key %08x, was %08x", curKey, oldKey)
	}
}

// TestGoldenDropsOnlyGraph pins what the writer stopped storing next: the
// current golden, seed.v2s-nograph.ggp, is seed.v2s-nolevels.ggp without
// its graph sections. Every trace section is byte for byte the same except
// meta, whose node and edge counts are now 0; the sidecar bodies are the
// same, stamped with the new content key, which the trace sections alone
// now feed.
func TestGoldenDropsOnlyGraph(t *testing.T) {
	old, cur := readGolden(t, "seed.v2s-nolevels.ggp"), readGolden(t, "seed.v2s-nograph.ggp")
	oldSecs, _, err := walkV2(old)
	if err != nil {
		t.Fatal(err)
	}
	curSecs, curKey, err := walkV2(cur)
	if err != nil {
		t.Fatal(err)
	}
	var want []v2Section
	for _, s := range oldSecs {
		switch s.id {
		case secV2Nodes, secV2NodeCounters, secV2Edges, secV2Trailer:
			continue
		case secV2Meta:
			var m v2Meta
			if err := colenc.Decode(s.payload, m.schema()...); err != nil {
				t.Fatal(err)
			}
			if m.nNodes == 0 || m.nEdges == 0 {
				t.Fatalf("the older golden counts %d nodes and %d edges", m.nNodes, m.nEdges)
			}
			m.nNodes, m.nEdges = 0, 0
			s.payload = colenc.Encode(m.schema()...)
		case secV2Lod, secV2Query:
			stamp := binary.LittleEndian.AppendUint32([]byte{sidecarFormatVersion}, curKey)
			s.payload = append(stamp, s.payload[5:]...)
		}
		want = append(want, s)
	}
	got := curSecs[:len(curSecs)-1] // without the trailer
	if len(got) != len(want) {
		t.Fatalf("the current golden has %d sections before its trailer, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].id != want[i].id || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Errorf("section %d: 0x%02x (%d bytes), want 0x%02x (%d bytes)",
				i, got[i].id, len(got[i].payload), want[i].id, len(want[i].payload))
		}
	}
}

// TestLegacyGraphSections: an artifact written while the graph was stored
// decodes, with fresh sidecars, to a trace whose core.Build is column by
// column the graph the file carries: its grain dictionary, node and edge
// columns, entry/exit tables and meta counts, and each node's counters,
// which were its fragment's or its chunk's (zero for the others). A
// corrupted graph section still fails the decode, full or trace-only,
// with ErrCRC.
func TestLegacyGraphSections(t *testing.T) {
	for _, name := range []string{"seed.v2s.ggp", "seed.v2s-nolevels.ggp"} {
		data := readGolden(t, name)
		dec, err := Decode(data, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if dec.SidecarStale || !dec.HasSidecars() {
			t.Errorf("%s sidecars: stale=%v complete=%v", name, dec.SidecarStale, dec.HasSidecars())
		}
		tr := dec.Trace
		g := core.Build(tr)
		want := g.ExportColumns()
		meta, l := decodeLegacy(t, data)
		got := l.cols
		for _, c := range []struct {
			name      string
			got, want any
		}{
			{"grain dictionary", l.nodes.dict, tr.Numbering().IDs},
			{"kind", got.Kind, want.Kind}, {"grain", got.Grain, want.Grain},
			{"loop", got.Loop, want.Loop}, {"seq", got.Seq, want.Seq},
			{"label", got.Label, want.Label}, {"start", got.Start, want.Start},
			{"end", got.End, want.End}, {"weight", got.Weight, want.Weight},
			{"core", got.Core, want.Core}, {"members", got.Members, want.Members},
			{"edge from", got.EdgeFrom, want.EdgeFrom}, {"edge to", got.EdgeTo, want.EdgeTo},
			{"edge kind", got.EdgeKind, want.EdgeKind},
			{"first nodes", l.edges.first, g.FirstNode}, {"last nodes", l.edges.last, g.LastNode},
			{"meta counts", [2]int{int(meta.nNodes), int(meta.nEdges)}, [2]int{g.NumNodes(), g.NumEdges()}},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Errorf("%s: %s stored %v, built %v", name, c.name, c.got, c.want)
			}
		}
		if len(l.ctr.col[0]) != g.NumNodes() {
			t.Fatalf("%s: counters for %d nodes, the graph has %d", name, len(l.ctr.col[0]), g.NumNodes())
		}
		for n := range g.NumNodes() {
			var want cache.Counters
			switch num := g.GrainNum(core.NodeID(n)); g.Kind(core.NodeID(n)) {
			case core.NodeFragment:
				want = tr.Tasks[num].Fragments[g.Seq(core.NodeID(n))].Counters
			case core.NodeChunk:
				want = tr.Chunks[int(num)-len(tr.Tasks)].Counters
			}
			if got := l.ctr.at(n); got != want {
				t.Errorf("%s: node %d stored counters %+v, its record has %+v", name, n, got, want)
			}
		}

		secs, _, _ := walkV2(data)
		for _, s := range l.sections() {
			i := slices.IndexFunc(secs, func(d v2Section) bool { return d.id == s.id })
			bad := bytes.Clone(data)
			bad[payloadAt(secs, i)+len(secs[i].payload)/2] ^= 0xFF
			if _, err := Decode(bad, nil, nil); !errors.Is(err, ErrCRC) {
				t.Errorf("%s: Decode with section 0x%02x corrupted: %v, want ErrCRC", name, s.id, err)
			}
			if _, err := DecodeTrace(bad, nil, nil); !errors.Is(err, ErrCRC) {
				t.Errorf("%s: DecodeTrace with section 0x%02x corrupted: %v, want ErrCRC", name, s.id, err)
			}
		}
	}
}

// TestLegacyCyclicGraphDecodes: seed.v2-cyclic.ggp was written while the
// graph was stored, from a graph that gained one edge reversing another,
// so its graph sections close a two-node cycle under valid checksums. A
// reader that adopted the stored graph had to reject it; a reader that
// builds the graph from the trace decodes it, and the graph it builds is
// the stored one without the extra edge, acyclic.
func TestLegacyCyclicGraphDecodes(t *testing.T) {
	data := readGolden(t, "seed.v2-cyclic.ggp")
	_, l := decodeLegacy(t, data)
	e := l.cols
	cycle := false
	for i := range e.EdgeFrom {
		cycle = cycle || e.EdgeFrom[i] == e.EdgeTo[0] && e.EdgeTo[i] == e.EdgeFrom[0]
	}
	if !cycle {
		t.Fatal("the graph sections close no cycle through edge 0")
	}

	dec, err := Decode(data, nil, nil)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if _, err := DecodeTrace(data, nil, nil); err != nil {
		t.Fatalf("DecodeTrace: %v", err)
	}
	g := core.Build(dec.Trace)
	if g.NumLevels() == 0 || g.NumEdges() != len(e.EdgeFrom)-1 {
		t.Fatalf("built %d levels and %d edges; the file stores %d edges", g.NumLevels(), g.NumEdges(), len(e.EdgeFrom))
	}
	built := g.ExportColumns()
	if n := len(built.EdgeFrom); !slices.Equal(built.EdgeFrom, e.EdgeFrom[:n]) || !slices.Equal(built.EdgeTo, e.EdgeTo[:n]) {
		t.Error("the built edges are not the stored edges before the extra one")
	}
}

// TestV2LevelsSidecar: an older artifact's level-index sidecar is verified
// and skipped like any unknown sidecar. The index the built graph makes on
// first use equals the one the sidecar carried, and a corrupted sidecar
// still fails the decode, full or trace-only.
func TestV2LevelsSidecar(t *testing.T) {
	old := readGolden(t, "seed.v2s.ggp")
	secs, key, err := walkV2(old)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(secs, func(s v2Section) bool { return s.id == secV2Levels })
	if i < 0 {
		t.Fatal("seed.v2s.ggp carries no levels sidecar")
	}
	body, ok, err := sidecarBody(secs[i].payload, key)
	if !ok || err != nil {
		t.Fatalf("levels sidecar header: ok=%v err=%v", ok, err)
	}
	// The sidecar body: level offsets, the level-ordered node list and each
	// node's level.
	var off, nodes, level []int32
	if err := colenc.Decode(body, colenc.U32(&off), colenc.SameRows(colenc.U32(&nodes), colenc.Uvar(&level))); err != nil {
		t.Fatal(err)
	}

	for _, pool := range []*runpool.Runner{nil, runpool.New(4)} {
		dec, err := Decode(old, pool, nil)
		if err != nil {
			t.Fatal(err)
		}
		g := core.Build(dec.Trace)
		if g.NumLevels() != len(off)-1 {
			t.Fatalf("built %d levels, the sidecar carried %d", g.NumLevels(), len(off)-1)
		}
		for l := 0; l < g.NumLevels(); l++ {
			if got, want := g.LevelNodes(l), nodes[off[l]:off[l+1]]; !reflect.DeepEqual(got, want) {
				t.Fatalf("level %d: built %v, the sidecar carried %v", l, got, want)
			}
		}
		for n, want := range level {
			if got := g.Level(core.NodeID(n)); got != int(want) {
				t.Fatalf("node %d: built level %d, the sidecar carried %d", n, got, want)
			}
		}
	}

	bad := bytes.Clone(old)
	bad[payloadAt(secs, i)+len(secs[i].payload)-1] ^= 0xFF
	if _, err := Decode(bad, nil, nil); !errors.Is(err, ErrCRC) {
		t.Errorf("Decode with a corrupted levels sidecar: %v, want ErrCRC", err)
	}
	if _, err := DecodeTrace(bad, nil, nil); !errors.Is(err, ErrCRC) {
		t.Errorf("DecodeTrace with a corrupted levels sidecar: %v, want ErrCRC", err)
	}
}
