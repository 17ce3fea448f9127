package ggp

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"

	"graingraph/internal/cache"
	"graingraph/internal/profile"
)

// readTrace reconstructs a trace from a v1 artifact, up to, not including,
// validation (Decode numbers and validates it); Decode has
// already checked the header. It walks the sections in place, the
// way walkV2 frames v2 sections, and stops at the trailer: bytes after it
// are not read. Records are appended in section order, so the returned
// trace's slices match the producer's emission order and the rebuilt grain
// graph assigns identical NodeIDs to the live-simulated one. Any
// malformation — truncation, corrupted CRC, oversized or undecodable
// sections — yields an error, never a panic.
//
// A first pass over the frame headers counts the record sections, so each
// record kind decodes into one exactly sized slab and pointer slice rather
// than one allocation per record and a growing slice. A section shorter
// than its kind's smallest encoding is not counted, so the slabs never
// hold more records than the input could encode; it reads the task IDs
// too, so references resolve as the records decode. A task's fragments,
// boundaries and joined lists are carved from chunked slabs
// (profile.Carve), whose counts the frame headers do not show; each count
// is bounded by the payload (see count), so a hostile count cannot force a
// large chunk. Source-location file and function names,
// shared by thousands of records, are allocated once per decode.
func readTrace(data []byte) (*profile.Trace, error) {
	off := len(Magic) + 1
	tr := &profile.Trace{}
	sawMeta := false
	var counts [256]int
	ids := countSections(data, &counts)
	tasks, loops := slab(&tr.Tasks, counts[secTask]), slab(&tr.Loops, counts[secLoop])
	chunks, bookkeeps := slab(&tr.Chunks, counts[secChunk]), slab(&tr.Bookkeeps, counts[secBookkeep])
	d := decoder{names: make(map[string]string), ids: ids, index: profile.NewIDIndex(ids, counts[secChunk])}
	for {
		if off >= len(data) {
			return nil, fmt.Errorf("%w: stream ends before trailer", ErrTruncated)
		}
		idAt := off
		id := data[off]
		off++
		size, n := sectionLen(data[off:])
		if n <= 0 {
			return nil, fmt.Errorf("%w: unterminated section length", ErrTruncated)
		}
		off += n
		if size > maxSection {
			return nil, fmt.Errorf("ggp: section 0x%02x length %d exceeds limit %d", id, size, maxSection)
		}
		if size > uint64(len(data)-off) {
			return nil, fmt.Errorf("%w: section 0x%02x shorter than its length prefix", ErrTruncated, id)
		}
		payload := data[off : off+int(size) : off+int(size)]
		off += int(size)
		if id == secTrailer {
			if len(payload) != 4 {
				return nil, fmt.Errorf("%w: trailer payload is %d bytes, want 4", ErrCRC, len(payload))
			}
			// The stored sum was taken before the Writer appended the
			// trailer section: it covers every byte before the trailer's ID.
			want := binary.LittleEndian.Uint32(payload)
			if got := crc32.ChecksumIEEE(data[:idAt]); got != want {
				return nil, fmt.Errorf("%w: computed %08x, stored %08x", ErrCRC, got, want)
			}
			break
		}
		d.buf, d.off = payload, 0
		var err error
		switch id {
		case secMeta:
			if sawMeta {
				return nil, fmt.Errorf("ggp: duplicate meta section")
			}
			sawMeta = true
			err = d.meta(tr)
		case secTask:
			t := at(tasks, len(tr.Tasks))
			if err = d.task(t, len(tr.Tasks)); err == nil {
				tr.Tasks = append(tr.Tasks, t)
			}
		case secLoop:
			l := at(loops, len(tr.Loops))
			if err = d.loop(l); err == nil {
				tr.Loops = append(tr.Loops, l)
			}
		case secChunk:
			c := at(chunks, len(tr.Chunks))
			if err = d.chunk(c); err == nil {
				tr.Chunks = append(tr.Chunks, c)
			}
		case secBookkeep:
			b := at(bookkeeps, len(tr.Bookkeeps))
			if err = d.bookkeep(b); err == nil {
				tr.Bookkeeps = append(tr.Bookkeeps, b)
			}
		case secWorkers:
			err = d.workers(tr)
		default:
			// Unknown section: a newer minor producer added a record kind this
			// reader does not understand. Skipping is safe — lengths frame it.
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("ggp: section 0x%02x: %w", id, err)
		}
		if !d.empty() {
			return nil, fmt.Errorf("ggp: section 0x%02x carries %d trailing bytes", id, d.remaining())
		}
	}
	if !sawMeta {
		return nil, fmt.Errorf("ggp: artifact has no meta section")
	}
	tr.AdoptIDIndex(d.index)
	return tr, nil
}

// minRecord is the smallest payload each record section decodes from:
// one byte per varint, string length and collection count, plus a task's
// inlined flag. A task is its ID, parent, file, line, function, depth, five
// times, the flag and two counts; a loop its ID, location, schedule, chunk
// size, bounds, two times, start thread and thread count; a chunk its loop,
// sequence, thread, bounds, three times and seven counters; a book-keep
// record its loop, thread, grabs and total.
var minRecord = [256]uint64{secTask: 14, secLoop: 12, secChunk: 15, secBookkeep: 4}

// countSections counts the v1 stream's sections by ID up to the trailer,
// reading frame headers only, and returns the IDs that open the counted
// task sections, cut from one string, in a slice with room for the chunk
// IDs (the trace's numbering adopts it as its ID table). It stops quietly at the first
// framing fault: the counts size the record slabs, and the decoding pass
// that follows frames the same sections and reports the fault (or an ID
// that does not decode). A section shorter than minRecord cannot decode,
// so it is not counted: each counted record takes at least its smallest
// encoding of input, and the slabs cost no more per input byte than
// decoding that many valid records one at a time would.
func countSections(data []byte, counts *[256]int) []profile.GrainID {
	nIDs, idBytes := 0, 0
	eachSection(data, func(id byte, p []byte) {
		counts[id]++
		if tid, ok := taskID(id, p); ok {
			nIDs++
			idBytes += len(tid)
		}
	})
	if nIDs == 0 {
		return nil
	}
	ids := make([]profile.GrainID, 0, nIDs+counts[secChunk])
	var b strings.Builder
	b.Grow(idBytes) // exactly: the substrings cut below stay where they are
	eachSection(data, func(id byte, p []byte) {
		if tid, ok := taskID(id, p); ok {
			at := b.Len()
			b.Write(tid)
			ids = append(ids, profile.GrainID(b.String()[at:]))
		}
	})
	return ids
}

// taskID returns the ID that opens section payload p when p is a task
// section that holds all of it.
func taskID(id byte, p []byte) ([]byte, bool) {
	l, k := binary.Uvarint(p)
	if id != secTask || k <= 0 || l > uint64(len(p)-k) {
		return nil, false
	}
	return p[k : k+int(l)], true
}

// eachSection calls fn with the ID and payload of every section at least
// minRecord[id] long, up to the trailer or the first framing fault.
func eachSection(data []byte, fn func(id byte, payload []byte)) {
	off := len(Magic) + 1
	for off < len(data) {
		id := data[off]
		size, n := sectionLen(data[off+1:])
		if n <= 0 || size > maxSection || size > uint64(len(data)-off-1-n) || id == secTrailer {
			break
		}
		if size >= minRecord[id] {
			fn(id, data[off+1+n:off+1+n+int(size)])
		}
		off += 1 + n + int(size)
	}
}

// slab returns n zeroed records for a decode to fill in place and points
// *ptrs at an empty slice with room for their n pointers. n == 0 leaves
// *ptrs nil, as a decode that appends nothing would.
func slab[T any](ptrs *[]*T, n int) []T {
	if n == 0 {
		return nil
	}
	*ptrs = make([]*T, 0, n)
	return make([]T, n)
}

// at returns the slab's i-th record, or a fresh one past its end: a section
// too short to be counted still reaches its decoder, which rejects it.
func at[T any](s []T, i int) *T {
	if i < len(s) {
		return &s[i]
	}
	return new(T)
}

// sectionLen decodes a section length prefix: a uvarint of at most ten
// bytes, of which the tenth contributes only its low bit. n <= 0 means the
// prefix is cut short or runs past ten bytes.
func sectionLen(p []byte) (v uint64, n int) {
	for shift := 0; shift < 64; shift += 7 {
		if n >= len(p) {
			return 0, 0
		}
		b := p[n]
		n++
		v |= uint64(b&0x7F) << shift
		if b < 0x80 {
			return v, n
		}
	}
	return 0, -1
}

// decoder walks one section payload. Every accessor checks bounds; on a
// short payload it returns an error instead of panicking, which the fuzz
// target exercises.
type decoder struct {
	buf []byte
	off int
	// names interns source-location file and function names across the
	// sections of one decode.
	names map[string]string
	// ids are the task IDs (see countSections); index resolves references.
	ids   []profile.GrainID
	index *profile.IDIndex
	// The slabs the tasks' fragments, boundaries and joined lists are
	// carved from.
	frags  []profile.Fragment
	bounds []profile.Boundary
	joins  []int32
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

// i32 reads a signed varint that the record holds as an int32; a value
// outside int32 is an error, not a wrapped number.
func (d *decoder) i32(what string) (int32, error) {
	v, err := d.i()
	if err == nil && v != int(int32(v)) {
		err = fmt.Errorf("%s %d is outside int32", what, v)
	}
	return int32(v), err
}

// bytes reads a length-prefixed byte string in place.
func (d *decoder) bytes() ([]byte, error) {
	n, err := d.u()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.remaining()) {
		return nil, fmt.Errorf("string length %d exceeds %d remaining bytes", n, d.remaining())
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

func (d *decoder) str() (string, error) {
	b, err := d.bytes()
	return string(b), err
}

// name reads a string that repeats across records, allocating each
// distinct value once per decode (the map lookup by string(b) does not
// allocate).
func (d *decoder) name() (string, error) {
	b, err := d.bytes()
	if err != nil {
		return "", err
	}
	if s, ok := d.names[string(b)]; ok {
		return s, nil
	}
	s := string(b)
	d.names[s] = s
	return s, nil
}

func (d *decoder) loc() (profile.SrcLoc, error) {
	var l profile.SrcLoc
	var err error
	if l.File, err = d.name(); err != nil {
		return l, err
	}
	if l.Line, err = d.i(); err != nil {
		return l, err
	}
	l.Func, err = d.name()
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

// ref reads a reference that the format stores as a task ID and resolves
// it through the decode's index (see resolveRef).
func (d *decoder) ref(task profile.GrainID, what string) (int32, error) {
	b, err := d.bytes()
	if err != nil {
		return -1, err
	}
	return resolveRef(d.index, task, what, b)
}

// task decodes the k-th task record, whose ID countSections has read.
func (d *decoder) task(t *profile.TaskRecord, k int) error {
	if _, err := d.bytes(); err != nil {
		return err
	}
	if k >= len(d.ids) {
		return fmt.Errorf("task record %d has no indexed ID", k)
	}
	t.ID = d.ids[k]
	var err error
	if t.Parent, err = d.ref(t.ID, "parent"); err != nil {
		return err
	}
	if t.Loc, err = d.loc(); err != nil {
		return err
	}
	if t.Depth, err = d.i32("depth"); err != nil {
		return err
	}
	if t.CreateTime, err = d.u(); err != nil {
		return err
	}
	if t.CreateCost, err = d.u(); err != nil {
		return err
	}
	if t.CreatedBy, err = d.i32("creating worker"); err != nil {
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
		t.Fragments = profile.Carve(&d.frags, nf)
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
		t.Boundaries = profile.Carve(&d.bounds, nb)
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
		child, err := d.ref(t.ID, "child")
		if err != nil {
			return err
		}
		if b.Kind == profile.BoundaryFork {
			b.Child = child
		}
		nj, err := d.count()
		if err != nil {
			return err
		}
		if nj > 0 {
			b.Joined = profile.Carve(&d.joins, nj)
			for j := range b.Joined {
				if b.Joined[j], err = d.ref(t.ID, "joined grain"); err != nil {
					return err
				}
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
