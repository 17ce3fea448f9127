package ggp

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"

	"graingraph/internal/cache"
	"graingraph/internal/profile"
)

// ReadTrace reconstructs a trace from a GGP artifact stream. Records are
// appended in section order, so the returned trace's slices match the
// producer's emission order and the rebuilt grain graph assigns identical
// NodeIDs to the live-simulated one. The trace is checksum-verified and
// structurally validated (profile.Trace.Validate) before it is returned;
// any malformation — truncation, version skew, corrupted CRC, oversized or
// undecodable sections — yields an error, never a panic.
func ReadTrace(r io.Reader) (*profile.Trace, error) {
	tr, err := readTrace(r)
	if err != nil {
		return nil, err
	}
	if err := indexAndValidate(tr, nil); err != nil {
		return nil, err
	}
	return tr, nil
}

// readTrace is ReadTrace up to, not including, validation.
func readTrace(r io.Reader) (*profile.Trace, error) {
	var hdr [len(Magic) + 1]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if string(hdr[:len(Magic)]) != Magic {
		return nil, ErrMagic
	}
	if v := hdr[len(Magic)]; v == 0 || v > Version {
		return nil, fmt.Errorf("%w: artifact version %d, reader supports <= %d",
			ErrVersion, v, Version)
	}

	crc := crc32.NewIEEE()
	crc.Write(hdr[:])
	br := &crcReader{r: r, crc: crc}

	tr := &profile.Trace{}
	sawMeta, sawTrailer := false, false
	for !sawTrailer {
		id, err := br.byte()
		if err != nil {
			return nil, fmt.Errorf("%w: stream ends before trailer", ErrTruncated)
		}
		size, err := br.uvarint()
		if err != nil {
			return nil, fmt.Errorf("%w: unterminated section length", ErrTruncated)
		}
		if size > maxSection {
			return nil, fmt.Errorf("ggp: section 0x%02x length %d exceeds limit %d", id, size, maxSection)
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, fmt.Errorf("%w: section 0x%02x shorter than its length prefix", ErrTruncated, id)
		}
		d := &decoder{buf: payload}
		switch id {
		case secMeta:
			if sawMeta {
				return nil, fmt.Errorf("ggp: duplicate meta section")
			}
			sawMeta = true
			err = d.meta(tr)
		case secTask:
			var t profile.TaskRecord
			if err = d.task(&t); err == nil {
				tr.Tasks = append(tr.Tasks, &t)
			}
		case secLoop:
			var l profile.LoopRecord
			if err = d.loop(&l); err == nil {
				tr.Loops = append(tr.Loops, &l)
			}
		case secChunk:
			var c profile.ChunkRecord
			if err = d.chunk(&c); err == nil {
				tr.Chunks = append(tr.Chunks, &c)
			}
		case secBookkeep:
			var b profile.BookkeepRecord
			if err = d.bookkeep(&b); err == nil {
				tr.Bookkeeps = append(tr.Bookkeeps, &b)
			}
		case secWorkers:
			err = d.workers(tr)
		case secTrailer:
			sawTrailer = true
			if len(payload) != 4 {
				return nil, fmt.Errorf("%w: trailer payload is %d bytes, want 4", ErrCRC, len(payload))
			}
			// The stored sum was taken before the Writer appended the trailer
			// section, so compare against the running sum as of just before
			// the trailer's ID byte (snapshotted by crcReader.byte).
			want := binary.LittleEndian.Uint32(payload)
			if got := br.sumBeforeTrailer; got != want {
				return nil, fmt.Errorf("%w: computed %08x, stored %08x", ErrCRC, got, want)
			}
		default:
			// Unknown section: a newer minor producer added a record kind this
			// reader does not understand. Skipping is safe — lengths frame it.
		}
		if err != nil {
			return nil, fmt.Errorf("ggp: section 0x%02x: %w", id, err)
		}
		if !d.empty() && id != secTrailer && isKnown(id) {
			return nil, fmt.Errorf("ggp: section 0x%02x carries %d trailing bytes", id, d.remaining())
		}
	}
	if !sawMeta {
		return nil, fmt.Errorf("ggp: artifact has no meta section")
	}
	return tr, nil
}

// ReadFile reads and validates the artifact at path.
func ReadFile(path string) (*profile.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}

func isKnown(id byte) bool {
	switch id {
	case secMeta, secTask, secLoop, secChunk, secBookkeep, secWorkers, secTrailer:
		return true
	}
	return false
}

// crcReader feeds every byte it reads into the running checksum, and keeps
// the sum as of just before the trailer section ID so the trailer's own
// bytes are excluded from verification.
type crcReader struct {
	r                io.Reader
	crc              hash.Hash32
	sumBeforeTrailer uint32
	one              [1]byte
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.crc.Write(p[:n])
	}
	return n, err
}

// byte reads the next section ID, recording the checksum state before it.
func (c *crcReader) byte() (byte, error) {
	c.sumBeforeTrailer = c.crc.Sum32()
	if _, err := io.ReadFull(c, c.one[:]); err != nil {
		return 0, err
	}
	return c.one[0], nil
}

// uvarint decodes one unsigned varint from the stream.
func (c *crcReader) uvarint() (uint64, error) {
	var v uint64
	for shift := 0; shift < 64; shift += 7 {
		if _, err := io.ReadFull(c, c.one[:]); err != nil {
			return 0, err
		}
		b := c.one[0]
		v |= uint64(b&0x7F) << shift
		if b < 0x80 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("ggp: uvarint overflows 64 bits")
}

// decoder walks one section payload. Every accessor checks bounds; on a
// short payload it returns an error instead of panicking, which the fuzz
// target exercises.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) empty() bool    { return d.off >= len(d.buf) }
func (d *decoder) remaining() int { return len(d.buf) - d.off }

func (d *decoder) u() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated uvarint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) i() (int, error) {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated varint at offset %d", d.off)
	}
	d.off += n
	return int(v), nil
}

func (d *decoder) str() (string, error) {
	n, err := d.u()
	if err != nil {
		return "", err
	}
	if n > uint64(d.remaining()) {
		return "", fmt.Errorf("string length %d exceeds %d remaining bytes", n, d.remaining())
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *decoder) loc() (profile.SrcLoc, error) {
	var l profile.SrcLoc
	var err error
	if l.File, err = d.str(); err != nil {
		return l, err
	}
	if l.Line, err = d.i(); err != nil {
		return l, err
	}
	l.Func, err = d.str()
	return l, err
}

func (d *decoder) counters() (cache.Counters, error) {
	var c cache.Counters
	for _, p := range []*uint64{&c.Accesses, &c.L1Miss, &c.L2Miss, &c.L3Miss, &c.Remote, &c.Stall, &c.Compute} {
		v, err := d.u()
		if err != nil {
			return c, err
		}
		*p = v
	}
	return c, nil
}

// count reads a collection length and bounds it by the bytes that could
// possibly encode that many records (>= 1 byte each), so a corrupted count
// cannot force a huge allocation.
func (d *decoder) count() (int, error) {
	n, err := d.u()
	if err != nil {
		return 0, err
	}
	if n > uint64(d.remaining()) {
		return 0, fmt.Errorf("count %d exceeds %d remaining payload bytes", n, d.remaining())
	}
	return int(n), nil
}

func (d *decoder) meta(tr *profile.Trace) error {
	var err error
	if tr.Program, err = d.str(); err != nil {
		return err
	}
	if tr.Cores, err = d.i(); err != nil {
		return err
	}
	if tr.Sockets, err = d.i(); err != nil {
		return err
	}
	if tr.Scheduler, err = d.str(); err != nil {
		return err
	}
	if tr.Flavor, err = d.str(); err != nil {
		return err
	}
	if tr.PagePolicy, err = d.str(); err != nil {
		return err
	}
	if tr.Start, err = d.u(); err != nil {
		return err
	}
	tr.End, err = d.u()
	return err
}

func (d *decoder) task(t *profile.TaskRecord) error {
	id, err := d.str()
	if err != nil {
		return err
	}
	t.ID = profile.GrainID(id)
	parent, err := d.str()
	if err != nil {
		return err
	}
	t.Parent = profile.GrainID(parent)
	if t.Loc, err = d.loc(); err != nil {
		return err
	}
	if t.Depth, err = d.i(); err != nil {
		return err
	}
	if t.CreateTime, err = d.u(); err != nil {
		return err
	}
	if t.CreateCost, err = d.u(); err != nil {
		return err
	}
	if t.CreatedBy, err = d.i(); err != nil {
		return err
	}
	if t.StartTime, err = d.u(); err != nil {
		return err
	}
	if t.EndTime, err = d.u(); err != nil {
		return err
	}
	if d.empty() {
		return fmt.Errorf("missing inlined flag")
	}
	t.Inlined = d.buf[d.off] != 0
	d.off++

	nf, err := d.count()
	if err != nil {
		return err
	}
	if nf > 0 {
		t.Fragments = make([]profile.Fragment, nf)
	}
	for i := range t.Fragments {
		f := &t.Fragments[i]
		if f.Start, err = d.u(); err != nil {
			return err
		}
		if f.End, err = d.u(); err != nil {
			return err
		}
		if f.Core, err = d.i(); err != nil {
			return err
		}
		if f.Counters, err = d.counters(); err != nil {
			return err
		}
	}

	nb, err := d.count()
	if err != nil {
		return err
	}
	if nb > 0 {
		t.Boundaries = make([]profile.Boundary, nb)
	}
	for i := range t.Boundaries {
		b := &t.Boundaries[i]
		kind, err := d.i()
		if err != nil {
			return err
		}
		if kind < int(profile.BoundaryFork) || kind > int(profile.BoundaryLoop) {
			return fmt.Errorf("unknown boundary kind %d", kind)
		}
		b.Kind = profile.BoundaryKind(kind)
		if b.At, err = d.u(); err != nil {
			return err
		}
		child, err := d.str()
		if err != nil {
			return err
		}
		b.Child = profile.GrainID(child)
		nj, err := d.count()
		if err != nil {
			return err
		}
		if nj > 0 {
			b.Joined = make([]profile.GrainID, nj)
			for j := range b.Joined {
				s, err := d.str()
				if err != nil {
					return err
				}
				b.Joined[j] = profile.GrainID(s)
			}
		}
		if b.Wait, err = d.u(); err != nil {
			return err
		}
		if b.Suspended, err = d.u(); err != nil {
			return err
		}
		loop, err := d.i()
		if err != nil {
			return err
		}
		b.Loop = profile.LoopID(loop)
	}
	return nil
}

func (d *decoder) loop(l *profile.LoopRecord) error {
	id, err := d.i()
	if err != nil {
		return err
	}
	l.ID = profile.LoopID(id)
	if l.Loc, err = d.loc(); err != nil {
		return err
	}
	sched, err := d.i()
	if err != nil {
		return err
	}
	if sched < int(profile.ScheduleStatic) || sched > int(profile.ScheduleGuided) {
		return fmt.Errorf("unknown loop schedule %d", sched)
	}
	l.Schedule = profile.ScheduleKind(sched)
	if l.ChunkSize, err = d.i(); err != nil {
		return err
	}
	if l.Lo, err = d.i(); err != nil {
		return err
	}
	if l.Hi, err = d.i(); err != nil {
		return err
	}
	if l.Start, err = d.u(); err != nil {
		return err
	}
	if l.End, err = d.u(); err != nil {
		return err
	}
	if l.StartThread, err = d.i(); err != nil {
		return err
	}
	nt, err := d.count()
	if err != nil {
		return err
	}
	if nt > 0 {
		l.Threads = make([]int, nt)
		for i := range l.Threads {
			if l.Threads[i], err = d.i(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (d *decoder) chunk(c *profile.ChunkRecord) error {
	loop, err := d.i()
	if err != nil {
		return err
	}
	c.Loop = profile.LoopID(loop)
	if c.Seq, err = d.i(); err != nil {
		return err
	}
	if c.Thread, err = d.i(); err != nil {
		return err
	}
	if c.Lo, err = d.i(); err != nil {
		return err
	}
	if c.Hi, err = d.i(); err != nil {
		return err
	}
	if c.Start, err = d.u(); err != nil {
		return err
	}
	if c.End, err = d.u(); err != nil {
		return err
	}
	if c.Bookkeep, err = d.u(); err != nil {
		return err
	}
	c.Counters, err = d.counters()
	return err
}

func (d *decoder) bookkeep(b *profile.BookkeepRecord) error {
	loop, err := d.i()
	if err != nil {
		return err
	}
	b.Loop = profile.LoopID(loop)
	if b.Thread, err = d.i(); err != nil {
		return err
	}
	if b.Grabs, err = d.i(); err != nil {
		return err
	}
	b.Total, err = d.u()
	return err
}

func (d *decoder) workers(tr *profile.Trace) error {
	if tr.Workers != nil {
		return fmt.Errorf("duplicate workers section")
	}
	n, err := d.count()
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("empty workers section")
	}
	tr.Workers = make([]profile.WorkerStat, n)
	for i := range tr.Workers {
		if tr.Workers[i].Busy, err = d.u(); err != nil {
			return err
		}
		if tr.Workers[i].Overhead, err = d.u(); err != nil {
			return err
		}
	}
	return nil
}
