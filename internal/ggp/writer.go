package ggp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"graingraph/internal/cache"
	"graingraph/internal/profile"
)

// Writer streams a grain profile to an underlying io.Writer, one section
// per record, and seals the artifact with a CRC trailer on Close. Record
// methods may be called in any order; the graph builder only requires that
// records of each kind arrive in the producer's emission order, which the
// Writer preserves by construction.
type Writer struct {
	w      *bufio.Writer
	crc    hash.Hash32
	buf    []byte                          // scratch for one section payload
	hdr    [binary.MaxVarintLen64 + 1]byte // scratch for one section header
	err    error                           // first write error; sticky
	closed bool
}

// NewWriter writes the artifact header and returns a streaming writer.
func NewWriter(w io.Writer) (*Writer, error) {
	gw := &Writer{w: bufio.NewWriter(w), crc: crc32.NewIEEE()}
	hdr := append([]byte(Magic), Version)
	if err := gw.raw(hdr); err != nil {
		return nil, err
	}
	return gw, nil
}

// raw writes bytes to both the stream and the running checksum.
func (w *Writer) raw(p []byte) error {
	if w.err != nil {
		return w.err
	}
	if _, err := w.w.Write(p); err != nil {
		w.err = err
		return err
	}
	w.crc.Write(p) // never fails
	return nil
}

// section emits one length-prefixed section holding w.buf. Its header is
// built in w.hdr: a local would escape through the checksum's Write.
func (w *Writer) section(id byte) error {
	hdr := append(w.hdr[:0], id)
	hdr = binary.AppendUvarint(hdr, uint64(len(w.buf)))
	if err := w.raw(hdr); err != nil {
		return err
	}
	return w.raw(w.buf)
}

// Payload encoding helpers: unsigned fields use uvarint, possibly-negative
// ints use zig-zag varint, strings are length-prefixed.

func (w *Writer) u(v uint64)   { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *Writer) i(v int)      { w.buf = binary.AppendVarint(w.buf, int64(v)) }
func (w *Writer) str(s string) { w.u(uint64(len(s))); w.buf = append(w.buf, s...) }
func (w *Writer) loc(l profile.SrcLoc) {
	w.str(l.File)
	w.i(l.Line)
	w.str(l.Func)
}

func (w *Writer) counters(c cache.Counters) {
	w.u(c.Accesses)
	w.u(c.L1Miss)
	w.u(c.L2Miss)
	w.u(c.L3Miss)
	w.u(c.Remote)
	w.u(c.Stall)
	w.u(c.Compute)
}

// Meta records the program identification and trace span. Producers that
// only learn the span at finalization may call it last; the reader accepts the
// meta section at any position.
func (w *Writer) Meta(tr *profile.Trace) error {
	w.buf = w.buf[:0]
	w.str(tr.Program)
	w.i(tr.Cores)
	w.i(tr.Sockets)
	w.str(tr.Scheduler)
	w.str(tr.Flavor)
	w.str(tr.PagePolicy)
	w.u(tr.Start)
	w.u(tr.End)
	return w.section(secMeta)
}

// Task emits one task record, naming the tasks it references by ID: task
// n as ids[n], which is the trace's Numbering().IDs.
func (w *Writer) Task(t *profile.TaskRecord, ids []profile.GrainID) error {
	w.buf = w.buf[:0]
	w.str(string(t.ID))
	w.str(string(parentID(ids, t.Parent)))
	w.loc(t.Loc)
	w.i(int(t.Depth))
	w.u(t.CreateTime)
	w.u(t.CreateCost)
	w.i(int(t.CreatedBy))
	w.u(t.StartTime)
	w.u(t.EndTime)
	if t.Inlined {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
	w.u(uint64(len(t.Fragments)))
	for i := range t.Fragments {
		f := &t.Fragments[i]
		w.u(f.Start)
		w.u(f.End)
		w.i(f.Core)
		w.counters(f.Counters)
	}
	w.u(uint64(len(t.Boundaries)))
	for i := range t.Boundaries {
		b := &t.Boundaries[i]
		w.i(int(b.Kind))
		w.u(b.At)
		w.str(string(childID(ids, b)))
		w.u(uint64(len(b.Joined)))
		for _, j := range b.Joined {
			w.str(string(ids[j]))
		}
		w.u(b.Wait)
		w.u(b.Suspended)
		w.i(int(b.Loop))
	}
	return w.section(secTask)
}

// Loop emits one loop record.
func (w *Writer) Loop(l *profile.LoopRecord) error {
	w.buf = w.buf[:0]
	w.i(int(l.ID))
	w.loc(l.Loc)
	w.i(int(l.Schedule))
	w.i(l.ChunkSize)
	w.i(l.Lo)
	w.i(l.Hi)
	w.u(l.Start)
	w.u(l.End)
	w.i(l.StartThread)
	w.u(uint64(len(l.Threads)))
	for _, t := range l.Threads {
		w.i(t)
	}
	return w.section(secLoop)
}

// Chunk emits one chunk record.
func (w *Writer) Chunk(c *profile.ChunkRecord) error {
	w.buf = w.buf[:0]
	w.i(int(c.Loop))
	w.i(c.Seq)
	w.i(c.Thread)
	w.i(c.Lo)
	w.i(c.Hi)
	w.u(c.Start)
	w.u(c.End)
	w.u(c.Bookkeep)
	w.counters(c.Counters)
	return w.section(secChunk)
}

// Bookkeep emits one per-(loop,thread) book-keeping aggregate.
func (w *Writer) Bookkeep(b *profile.BookkeepRecord) error {
	w.buf = w.buf[:0]
	w.i(int(b.Loop))
	w.i(b.Thread)
	w.i(b.Grabs)
	w.u(b.Total)
	return w.section(secBookkeep)
}

// Workers emits the per-worker time split.
func (w *Writer) Workers(ws []profile.WorkerStat) error {
	w.buf = w.buf[:0]
	w.u(uint64(len(ws)))
	for i := range ws {
		w.u(ws[i].Busy)
		w.u(ws[i].Overhead)
	}
	return w.section(secWorkers)
}

// parentID and childID are the IDs both formats store for a task's
// parent ("" for the root) and a boundary's child ("" but for a fork).
func parentID(ids []profile.GrainID, n int32) profile.GrainID {
	if n < 0 {
		return ""
	}
	return ids[n]
}

func childID(ids []profile.GrainID, b *profile.Boundary) profile.GrainID {
	if b.Kind != profile.BoundaryFork {
		return ""
	}
	return ids[b.Child]
}

// Close seals the artifact with the CRC trailer and flushes. The Writer is
// unusable afterwards. Close does not close the underlying writer.
func (w *Writer) Close() error {
	if w.closed {
		return fmt.Errorf("ggp: writer already closed")
	}
	w.closed = true
	if w.err != nil {
		return w.err
	}
	sum := w.crc.Sum32()
	var payload [4]byte
	binary.LittleEndian.PutUint32(payload[:], sum)
	w.buf = append(w.buf[:0], payload[:]...)
	if err := w.section(secTrailer); err != nil {
		return err
	}
	return w.w.Flush()
}

// Emit streams every record of a finished trace into the Writer: meta,
// then each record slice in its trace order (which is the producer's
// emission order, so a read-back trace rebuilds identical NodeIDs), naming
// task n as ids[n] (see Task). It returns the first write error, which
// also sticks and surfaces from the caller's Close.
func (w *Writer) Emit(tr *profile.Trace, ids []profile.GrainID) error {
	w.Meta(tr)
	for _, t := range tr.Tasks {
		w.Task(t, ids)
	}
	for _, l := range tr.Loops {
		w.Loop(l)
	}
	for _, c := range tr.Chunks {
		w.Chunk(c)
	}
	for _, b := range tr.Bookkeeps {
		w.Bookkeep(b)
	}
	if len(tr.Workers) > 0 {
		w.Workers(tr.Workers)
	}
	return w.err
}

// WriteTrace writes tr as one complete artifact to w.
func WriteTrace(w io.Writer, tr *profile.Trace) error {
	gw, err := NewWriter(w)
	if err != nil {
		return err
	}
	if err := gw.Emit(tr, tr.Numbering().IDs); err != nil {
		return err
	}
	return gw.Close()
}

// WriteFile writes tr to path atomically (temp file + rename), so a
// concurrent reader never observes a half-written artifact.
func WriteFile(path string, tr *profile.Trace) error {
	return writeFileAtomic(path, func(w io.Writer) error { return WriteTrace(w, tr) })
}

// writeFileAtomic has write stream an artifact (either version) into a temp
// file beside path and renames it into place. When anything fails, path
// keeps what it held and the temp file is removed.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ggp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // nothing left to remove once renamed
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
