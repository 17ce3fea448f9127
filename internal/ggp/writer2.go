package ggp

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"graingraph/internal/colenc"
	"graingraph/internal/core"
	"graingraph/internal/profile"
)

// castagnoli is the CRC-32C table used by every v2 section checksum.
// Distinct from v1's IEEE polynomial on purpose: a v2 payload replayed
// through the v1 verifier (or vice versa) can never validate by accident.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SidecarKind identifies a derived-index sidecar section.
type SidecarKind byte

const (
	// SidecarLevels holds the topological level CSR (core/levels.go).
	// EncodeV2 emits it automatically when the graph's level index is
	// built; callers never construct it by hand.
	SidecarLevels SidecarKind = SidecarKind(secV2Levels)
	// SidecarLod holds the encoded lod summary index.
	SidecarLod SidecarKind = SidecarKind(secV2Lod)
	// SidecarQuery holds the encoded query metric table.
	SidecarQuery SidecarKind = SidecarKind(secV2Query)
)

// Sidecar is one derived-index payload to persist alongside the graph.
// The payload encoding is owned by the producing package (lod, query);
// ggp frames it, stamps the content key, and checksums it.
type Sidecar struct {
	Kind SidecarKind
	Data []byte
}

// EncodeV2 serializes a trace and its built grain graph as a columnar v2
// artifact. The graph must be the deterministic core.Build of tr (or a
// graph decoded from one): only construction-time columns are written —
// critical-path marks, layout geometry and adjacency indexes are derived
// state, so a post-analysis graph encodes byte-identically to a fresh
// build. If the graph's topological level index has been forced
// (NumLevels), it is persisted as a levels sidecar; lod/query sidecars are
// supplied by the caller, already encoded. Every sidecar is stamped with
// the artifact's content key so a later reader can detect staleness.
func EncodeV2(tr *profile.Trace, g *core.Graph, side []Sidecar) ([]byte, error) {
	return encodeV2(tr, g, side, 0, false)
}

// encodeV2 is EncodeV2 with an optional sidecar content-key override, a
// test hook that simulates the "graph sections changed after the sidecars
// were written" staleness scenario without hand-assembling an artifact.
func encodeV2(tr *profile.Trace, g *core.Graph, side []Sidecar, keyOverride uint32, useOverride bool) ([]byte, error) {
	if tr == nil || g == nil {
		return nil, fmt.Errorf("ggp: EncodeV2 requires a trace and a built graph")
	}
	w := &v2Writer{}
	w.buf = append(w.buf, Magic...)
	w.buf = append(w.buf, Version2)

	// Each section's columns are gathered just before they are written
	// and are garbage right after, so the writer's peak is the output
	// plus one section's columns, not plus every section's.
	w.put(secV2Meta, gatherMeta(tr, g))
	if len(tr.Workers) > 0 {
		w.put(secV2Workers, gatherWorkers(tr.Workers))
	}
	w.put(secV2Tasks, gatherTasks(tr.Tasks))
	w.put(secV2Frags, gatherFrags(tr.Tasks))
	w.put(secV2Bounds, gatherBounds(tr.Tasks))
	w.put(secV2Loops, gatherLoops(tr.Loops))
	w.put(secV2Chunks, gatherChunks(tr.Chunks))
	w.put(secV2Bookkeeps, gatherBookkeeps(tr.Bookkeeps))
	nodes, nodeCtrs, edges, err := gatherGraph(tr, g)
	if err != nil {
		return nil, err
	}
	w.put(secV2Nodes, nodes)
	w.put(secV2NodeCounters, nodeCtrs)
	w.put(secV2Edges, edges)

	// The content key is fixed once all content sections are written;
	// sidecars embed it and do not feed it.
	key := w.contentKey()
	sideKey := key
	if useOverride {
		sideKey = keyOverride
	}
	var levels v2Levels
	if levels.off, levels.nodes, levels.level = g.ExportLevels(); levels.off != nil {
		w.sidecar(secV2Levels, sideKey, colenc.Encode(levels.schema()...))
	}
	for _, s := range side {
		if !isV2Sidecar(byte(s.Kind)) {
			return nil, fmt.Errorf("ggp: invalid sidecar kind 0x%02x", byte(s.Kind))
		}
		w.sidecar(byte(s.Kind), sideKey, s.Data)
	}

	w.section(secV2Trailer, binary.AppendUvarint(binary.LittleEndian.AppendUint32(nil, key), uint64(w.sections)))
	return w.buf, nil
}

// WriteFileV2 encodes a v2 artifact and writes it atomically (temp file +
// rename), so a concurrent reader never observes a half-written artifact.
func WriteFileV2(path string, tr *profile.Trace, g *core.Graph, side []Sidecar) error {
	data, err := EncodeV2(tr, g, side)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ggp2-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// v2Writer frames sections into one flat buffer, collecting the
// per-section CRCs of content sections for the trailer's content key.
type v2Writer struct {
	buf      []byte
	crcs     []byte // concatenated 4-byte LE CRCs of content sections
	sections int
}

func (w *v2Writer) section(id byte, payload []byte) {
	w.buf = append(w.buf, id)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(payload)))
	w.buf = append(w.buf, payload...)
	sum := crc32.Checksum(payload, castagnoli)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, sum)
	if !isV2Sidecar(id) && id != secV2Trailer {
		w.crcs = binary.LittleEndian.AppendUint32(w.crcs, sum)
	}
	if id != secV2Trailer {
		w.sections++
	}
}

// put writes a content section from its gathered columns.
func (w *v2Writer) put(id byte, cols v2Cols) {
	w.section(id, colenc.Encode(cols.schema()...))
}

func (w *v2Writer) sidecar(id byte, key uint32, data []byte) {
	payload := make([]byte, 0, 5+len(data))
	payload = append(payload, sidecarFormatVersion)
	payload = binary.LittleEndian.AppendUint32(payload, key)
	payload = append(payload, data...)
	w.section(id, payload)
}

func (w *v2Writer) contentKey() uint32 {
	return crc32.Checksum(w.crcs, castagnoli)
}

// The gather functions transpose the trace's records into one section's
// columns each.

func gatherMeta(tr *profile.Trace, g *core.Graph) *v2Meta {
	return &v2Meta{
		program: tr.Program, scheduler: tr.Scheduler, flavor: tr.Flavor, pagePolicy: tr.PagePolicy,
		cores: int32(tr.Cores), sockets: int32(tr.Sockets), start: tr.Start, end: tr.End,
		nTasks: int32(len(tr.Tasks)), nLoops: int32(len(tr.Loops)),
		nChunks: int32(len(tr.Chunks)), nBookkeeps: int32(len(tr.Bookkeeps)),
		nNodes: int32(g.NumNodes()), nEdges: int32(g.NumEdges()),
	}
}

func gatherWorkers(ws []profile.WorkerStat) *v2Workers {
	w := &v2Workers{busy: make([]profile.Time, len(ws)), over: make([]profile.Time, len(ws))}
	for i, s := range ws {
		w.busy[i], w.over[i] = s.Busy, s.Overhead
	}
	return w
}

func gatherTasks(tasks []*profile.TaskRecord) *v2Tasks {
	n := len(tasks)
	c := &v2Tasks{
		ids:        make([]profile.GrainID, n),
		parents:    make([]profile.GrainID, n),
		locFile:    make([]string, n),
		locLine:    make([]int, n),
		locFunc:    make([]string, n),
		depth:      make([]int, n),
		createTime: make([]profile.Time, n),
		createCost: make([]profile.Time, n),
		createdBy:  make([]int, n),
		startTime:  make([]profile.Time, n),
		endTime:    make([]profile.Time, n),
		inlined:    make([]bool, n),
		fragOff:    make([]uint32, n+1),
		boundOff:   make([]uint32, n+1),
	}
	for i, t := range tasks {
		c.ids[i] = t.ID
		c.parents[i] = t.Parent
		c.locFile[i] = t.Loc.File
		c.locLine[i] = t.Loc.Line
		c.locFunc[i] = t.Loc.Func
		c.depth[i] = t.Depth
		c.createTime[i] = t.CreateTime
		c.createCost[i] = t.CreateCost
		c.createdBy[i] = t.CreatedBy
		c.startTime[i] = t.StartTime
		c.endTime[i] = t.EndTime
		c.inlined[i] = t.Inlined
		c.fragOff[i+1] = c.fragOff[i] + uint32(len(t.Fragments))
		c.boundOff[i+1] = c.boundOff[i] + uint32(len(t.Boundaries))
	}
	return c
}

func gatherFrags(tasks []*profile.TaskRecord) *v2Frags {
	n := 0
	for _, t := range tasks {
		n += len(t.Fragments)
	}
	c := &v2Frags{start: make([]profile.Time, n), end: make([]profile.Time, n), core: make([]int, n)}
	c.ctr.alloc(n)
	i := 0
	for _, t := range tasks {
		for fi := range t.Fragments {
			f := &t.Fragments[fi]
			c.start[i] = f.Start
			c.end[i] = f.End
			c.core[i] = f.Core
			c.ctr.set(i, &f.Counters)
			i++
		}
	}
	return c
}

func gatherBounds(tasks []*profile.TaskRecord) *v2Bounds {
	n, nj := 0, 0
	for _, t := range tasks {
		n += len(t.Boundaries)
		for bi := range t.Boundaries {
			nj += len(t.Boundaries[bi].Joined)
		}
	}
	c := &v2Bounds{
		kind:      make([]profile.BoundaryKind, n),
		at:        make([]profile.Time, n),
		child:     make([]profile.GrainID, n),
		wait:      make([]profile.Time, n),
		susp:      make([]profile.Time, n),
		loop:      make([]profile.LoopID, n),
		joinedOff: make([]uint32, n+1),
		joined:    make([]profile.GrainID, 0, nj),
	}
	i := 0
	for _, t := range tasks {
		for bi := range t.Boundaries {
			b := &t.Boundaries[bi]
			c.kind[i] = b.Kind
			c.at[i] = b.At
			c.child[i] = b.Child
			c.wait[i] = b.Wait
			c.susp[i] = b.Suspended
			c.loop[i] = b.Loop
			c.joined = append(c.joined, b.Joined...)
			c.joinedOff[i+1] = uint32(len(c.joined))
			i++
		}
	}
	return c
}

func gatherLoops(loops []*profile.LoopRecord) *v2Loops {
	n, nt := len(loops), 0
	for _, l := range loops {
		nt += len(l.Threads)
	}
	c := &v2Loops{
		id:          make([]profile.LoopID, n),
		locFile:     make([]string, n),
		locLine:     make([]int, n),
		locFunc:     make([]string, n),
		sched:       make([]profile.ScheduleKind, n),
		chunkSize:   make([]int, n),
		lo:          make([]int, n),
		hi:          make([]int, n),
		start:       make([]profile.Time, n),
		end:         make([]profile.Time, n),
		startThread: make([]int, n),
		threadOff:   make([]uint32, n+1),
		threads:     make([]int, 0, nt),
	}
	for i, l := range loops {
		c.id[i] = l.ID
		c.locFile[i] = l.Loc.File
		c.locLine[i] = l.Loc.Line
		c.locFunc[i] = l.Loc.Func
		c.sched[i] = l.Schedule
		c.chunkSize[i] = l.ChunkSize
		c.lo[i] = l.Lo
		c.hi[i] = l.Hi
		c.start[i] = l.Start
		c.end[i] = l.End
		c.startThread[i] = l.StartThread
		c.threads = append(c.threads, l.Threads...)
		c.threadOff[i+1] = uint32(len(c.threads))
	}
	return c
}

func gatherChunks(chunks []*profile.ChunkRecord) *v2Chunks {
	n := len(chunks)
	c := &v2Chunks{
		loop:     make([]profile.LoopID, n),
		seq:      make([]int, n),
		thread:   make([]int, n),
		lo:       make([]int, n),
		hi:       make([]int, n),
		start:    make([]profile.Time, n),
		end:      make([]profile.Time, n),
		bookkeep: make([]profile.Time, n),
	}
	c.ctr.alloc(n)
	for i, ck := range chunks {
		c.loop[i] = ck.Loop
		c.seq[i] = ck.Seq
		c.thread[i] = ck.Thread
		c.lo[i] = ck.Lo
		c.hi[i] = ck.Hi
		c.start[i] = ck.Start
		c.end[i] = ck.End
		c.bookkeep[i] = ck.Bookkeep
		c.ctr.set(i, &ck.Counters)
	}
	return c
}

func gatherBookkeeps(bks []*profile.BookkeepRecord) *v2Bookkeeps {
	n := len(bks)
	c := &v2Bookkeeps{
		loop:   make([]profile.LoopID, n),
		thread: make([]int, n),
		grabs:  make([]int, n),
		total:  make([]profile.Time, n),
	}
	for i, b := range bks {
		c.loop[i], c.thread[i], c.grabs[i], c.total[i] = b.Loop, b.Thread, b.Grabs, b.Total
	}
	return c
}

// gatherGraph builds the three graph sections. The store's own columns —
// the grain references among them — and the entry/exit tables are aliased,
// not copied: the grain dictionary is the trace's id table (tasks, then
// chunks), so a node's grain number is its dictionary reference. Gathered
// beside them are only the transposed counters.
func gatherGraph(tr *profile.Trace, g *core.Graph) (*v2Nodes, *v2Counters, *v2Edges, error) {
	dict := tr.Numbering().IDs
	gc := g.ExportColumns()
	nn := len(gc.Kind)
	ctrs := &v2Counters{}
	ctrs.alloc(nn)
	for i, num := range gc.Grain {
		if int(num) >= len(dict) {
			return nil, nil, nil, fmt.Errorf("ggp: node %d grain %q not in trace dictionary", i, g.Grain(core.NodeID(i)))
		}
		ctrs.set(i, &gc.Counters[i])
	}
	if len(g.FirstNode) != len(dict) || len(g.LastNode) != len(dict) {
		return nil, nil, nil, fmt.Errorf("ggp: entry/exit tables cover %d/%d grains, trace dictionary has %d",
			len(g.FirstNode), len(g.LastNode), len(dict))
	}
	return &v2Nodes{dict: dict, g: &gc}, ctrs, &v2Edges{g: &gc, first: g.FirstNode, last: g.LastNode}, nil
}
