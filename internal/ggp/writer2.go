package ggp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"graingraph/internal/cache"
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
	// SidecarLod holds the encoded lod summary index.
	SidecarLod SidecarKind = SidecarKind(secV2Lod)
	// SidecarQuery holds the encoded query metric table.
	SidecarQuery SidecarKind = SidecarKind(secV2Query)
)

// Sidecar is one derived-index payload to persist alongside the trace.
// The payload encoding is owned by the producing package (lod, query);
// ggp frames it, stamps the content key, and checksums it.
type Sidecar struct {
	Kind SidecarKind
	Data []byte
}

// EncodeV2 serializes a trace as a columnar v2 artifact. The grain graph
// is not stored: it is derived from the trace, and every reader builds it
// with core.Build, so g is ignored. (The parameter remains because the
// benchmark program in bench/ still passes a graph.) The lod and query
// sidecars are supplied by the caller, already encoded; every sidecar is
// stamped with the artifact's content key so a later reader can detect
// staleness.
//
// EncodeV2 is the streaming writer over an in-memory sink, for tests and
// probes that want the bytes; anything bound for a file uses WriteFileV2,
// which never holds the artifact whole.
func EncodeV2(tr *profile.Trace, g *core.Graph, side []Sidecar) ([]byte, error) {
	var buf bytes.Buffer
	if err := writeV2(&buf, tr, side, nil); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteFileV2 streams a v2 artifact to path atomically (temp file + rename),
// so a concurrent reader never observes a half-written artifact. Like
// EncodeV2, it ignores g.
func WriteFileV2(path string, tr *profile.Trace, g *core.Graph, side []Sidecar) error {
	return writeFileAtomic(path, func(w io.Writer) error { return writeV2(w, tr, side, nil) })
}

// writeV2 streams the artifact to dst. A non-nil staleKey replaces the
// content key the sidecars are stamped with, a test hook that simulates the
// "trace sections changed after the sidecars were written" staleness
// scenario without hand-assembling an artifact.
func writeV2(dst io.Writer, tr *profile.Trace, side []Sidecar, staleKey *uint32) error {
	if tr == nil {
		return fmt.Errorf("ggp: EncodeV2 requires a trace")
	}
	for _, s := range side {
		if !isV2Sidecar(byte(s.Kind)) {
			return fmt.Errorf("ggp: invalid sidecar kind 0x%02x", byte(s.Kind))
		}
	}
	w := &v2Writer{w: bufio.NewWriter(dst)}
	w.raw(append([]byte(Magic), Version2))

	// Each section's columns are gathered just before they are written
	// and are garbage right after, so the writer holds one section's
	// columns plus one encoded column, never the file.
	w.put(secV2Meta, gatherMeta(tr))
	if len(tr.Workers) > 0 {
		w.put(secV2Workers, gatherWorkers(tr.Workers))
	}
	w.put(secV2Tasks, gatherTasks(tr.Tasks))
	w.put(secV2Frags, gatherFrags(tr.Tasks))
	w.put(secV2Bounds, gatherBounds(tr.Tasks))
	w.put(secV2Loops, gatherLoops(tr.Loops))
	w.put(secV2Chunks, gatherChunks(tr.Chunks))
	w.put(secV2Bookkeeps, gatherBookkeeps(tr.Bookkeeps))

	// The content key is fixed once all content sections are written;
	// sidecars embed it and do not feed it.
	key := crc32.Checksum(w.crcs, castagnoli)
	sideKey := key
	if staleKey != nil {
		sideKey = *staleKey
	}
	stamp := binary.LittleEndian.AppendUint32([]byte{sidecarFormatVersion}, sideKey)
	for _, s := range side {
		w.begin(byte(s.Kind), len(stamp)+len(s.Data))
		w.payload(stamp)
		w.payload(s.Data)
		w.end()
	}

	trailer := binary.AppendUvarint(binary.LittleEndian.AppendUint32(nil, key), uint64(w.sections))
	w.begin(secV2Trailer, len(trailer))
	w.payload(trailer)
	w.end()
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// v2Writer frames sections onto a stream in the shape of the v1 Writer: a
// section's header is written from its declared size, its payload follows
// in pieces while the section CRC is folded over them, and the CRCs of
// content sections are collected for the trailer's content key. The first
// error sticks and turns every later call into a no-op.
type v2Writer struct {
	w        *bufio.Writer
	scratch  []byte // one encoded leaf column, reused
	crcs     []byte // concatenated 4-byte LE CRCs of content sections
	sections int
	err      error

	// The open section.
	id   byte
	left int // declared payload bytes not yet written
	crc  uint32
}

func (w *v2Writer) raw(p []byte) {
	if w.err == nil {
		_, w.err = w.w.Write(p)
	}
}

// begin opens a section whose payload will be exactly size bytes.
func (w *v2Writer) begin(id byte, size int) {
	w.raw(binary.AppendUvarint([]byte{id}, uint64(size)))
	w.id, w.left, w.crc = id, size, 0
}

// payload writes the next piece of the open section's payload. A piece the
// declared size has no room for is refused before it reaches the stream.
func (w *v2Writer) payload(p []byte) {
	if len(p) > w.left && w.err == nil {
		w.err = fmt.Errorf("ggp: internal error: section 0x%02x overruns its declared size by %d bytes", w.id, len(p)-w.left)
	}
	w.raw(p)
	w.left -= len(p)
	w.crc = crc32.Update(w.crc, castagnoli, p)
}

// end closes the open section with its CRC.
func (w *v2Writer) end() {
	if w.left != 0 && w.err == nil {
		w.err = fmt.Errorf("ggp: internal error: section 0x%02x ends %d bytes short of its declared size", w.id, w.left)
	}
	if w.err != nil {
		return
	}
	w.raw(binary.LittleEndian.AppendUint32(nil, w.crc))
	if !isV2Sidecar(w.id) && w.id != secV2Trailer {
		w.crcs = binary.LittleEndian.AppendUint32(w.crcs, w.crc)
	}
	if w.id != secV2Trailer {
		w.sections++
	}
}

// put writes a content section from its gathered columns. The columns are
// sized first — which is where a column no payload can hold fails, before
// the section has written a byte — and then encoded one leaf at a time into
// the reused scratch.
func (w *v2Writer) put(id byte, cols v2Cols) {
	if w.err != nil {
		return
	}
	leaves := colenc.Leaves(cols.schema()...)
	sizes := make([]int, len(leaves))
	total := 0
	for i, leaf := range leaves {
		if sizes[i], w.err = colenc.Size(leaf); w.err != nil {
			return
		}
		total += sizes[i]
	}
	w.begin(id, total)
	for i, leaf := range leaves {
		if w.err != nil {
			return
		}
		if cap(w.scratch) < sizes[i] {
			w.scratch = make([]byte, 0, sizes[i])
		}
		w.scratch = colenc.Append(w.scratch[:0], leaf)
		if len(w.scratch) != sizes[i] {
			w.err = fmt.Errorf("ggp: internal error: section 0x%02x column %d encoded to %d bytes, declared %d", id, i, len(w.scratch), sizes[i])
		}
		w.payload(w.scratch)
	}
	w.end()
}

// The gather functions transpose the trace's records into one section's
// columns each.

func gatherMeta(tr *profile.Trace) *v2Meta {
	return &v2Meta{
		program: tr.Program, scheduler: tr.Scheduler, flavor: tr.Flavor, pagePolicy: tr.PagePolicy,
		cores: int32(tr.Cores), sockets: int32(tr.Sockets), start: tr.Start, end: tr.End,
		nTasks: int32(len(tr.Tasks)), nLoops: int32(len(tr.Loops)),
		nChunks: int32(len(tr.Chunks)), nBookkeeps: int32(len(tr.Bookkeeps)),
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
	c.ctr = encodeCounters(func(yield func(*cache.Counters) bool) {
		for _, t := range tasks {
			for fi := range t.Fragments {
				if !yield(&t.Fragments[fi].Counters) {
					return
				}
			}
		}
	})
	i := 0
	for _, t := range tasks {
		for fi := range t.Fragments {
			f := &t.Fragments[fi]
			c.start[i] = f.Start
			c.end[i] = f.End
			c.core[i] = f.Core
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
	c.ctr = encodeCounters(func(yield func(*cache.Counters) bool) {
		for _, ck := range chunks {
			if !yield(&ck.Counters) {
				return
			}
		}
	})
	for i, ck := range chunks {
		c.loop[i] = ck.Loop
		c.seq[i] = ck.Seq
		c.thread[i] = ck.Thread
		c.lo[i] = ck.Lo
		c.hi[i] = ck.Hi
		c.start[i] = ck.Start
		c.end[i] = ck.End
		c.bookkeep[i] = ck.Bookkeep
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
