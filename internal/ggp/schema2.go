package ggp

import (
	"encoding/binary"
	"iter"
	"math/bits"

	"graingraph/internal/cache"
	"graingraph/internal/colenc"
	"graingraph/internal/profile"
)

// This file is the normative layout of every .ggp v2 section payload: one
// column-holder struct per section, and one schema method that lists the
// section's columns in file order with their wire encodings. The writer
// gathers rows into a holder and encodes its schema (writer2.go); the
// reader decodes the same schema into a holder and scatters it
// (reader2.go). Reordering, retyping, adding or dropping a column here
// changes the bytes on disk — the golden artifact in testdata/ fails — and
// needs a format version bump.

// v2Cols is a section's column holder.
type v2Cols interface {
	schema() []colenc.Col
}

// v2Meta is the only section of scalars: program identification, the
// trace span, and the row counts the other sections must agree with.
// nNodes and nEdges counted the graph sections (0x18–0x1A) of older
// artifacts; new artifacts store no graph and write them as 0, and the
// reader ignores them.
type v2Meta struct {
	program, scheduler, flavor, pagePolicy string
	cores, sockets                         int32
	start, end                             profile.Time
	nTasks, nLoops, nChunks, nBookkeeps    int32
	nNodes, nEdges                         int32
}

func (m *v2Meta) schema() []colenc.Col {
	return []colenc.Col{
		colenc.Str(&m.program),
		colenc.Uvarint(&m.cores),
		colenc.Uvarint(&m.sockets),
		colenc.Str(&m.scheduler),
		colenc.Str(&m.flavor),
		colenc.Str(&m.pagePolicy),
		colenc.Uvarint(&m.start),
		colenc.Uvarint(&m.end),
		colenc.Uvarint(&m.nTasks),
		colenc.Uvarint(&m.nLoops),
		colenc.Uvarint(&m.nChunks),
		colenc.Uvarint(&m.nBookkeeps),
		colenc.Uvarint(&m.nNodes),
		colenc.Uvarint(&m.nEdges),
	}
}

// v2Workers has one row per worker.
type v2Workers struct {
	busy, over []profile.Time
}

func (w *v2Workers) schema() []colenc.Col {
	return []colenc.Col{colenc.SameRows(colenc.U64(&w.busy), colenc.U64(&w.over))}
}

// v2Counters is cache.Counters transposed: one sparse column per counter,
// in the struct's field order (the order the v1 encoder uses). The reader
// decodes into col. The writer fills enc instead (encodeCounters): the
// counters are mostly small, so holding each column's varint bytes rather
// than eight bytes per value keeps the writer's allocation near the bytes
// it writes.
type v2Counters struct {
	col [7][]uint64
	enc [7][]byte
}

// counterFields lists v's counters in column order.
func counterFields(v *cache.Counters) [7]uint64 {
	return [7]uint64{v.Accesses, v.L1Miss, v.L2Miss, v.L3Miss, v.Remote, v.Stall, v.Compute}
}

// encodeCounters encodes the counters of rows as the seven columns
// colenc.Uvar writes from col: one pass over the records sizes every
// column, a second fills them.
func encodeCounters(rows iter.Seq[*cache.Counters]) v2Counters {
	n, size := 0, [7]int{}
	for v := range rows {
		n++
		for k, x := range counterFields(v) {
			size[k] += (bits.Len64(x|1) + 6) / 7
		}
	}
	var c v2Counters
	for k := range c.enc {
		c.enc[k] = binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+size[k]), uint64(n))
	}
	for v := range rows {
		for k, x := range counterFields(v) {
			c.enc[k] = binary.AppendUvarint(c.enc[k], x)
		}
	}
	return c
}

func (c *v2Counters) schema() []colenc.Col { return []colenc.Col{c.group()} }

// group is the seven columns as one row group, for sections that carry
// counters beside other per-row columns.
func (c *v2Counters) group() colenc.Col {
	cols := make([]colenc.Col, len(c.col))
	for k := range c.col {
		cols[k] = colenc.Uvar(&c.col[k])
		if c.enc[k] != nil {
			cols[k] = colenc.Encoded(c.enc[k])
		}
	}
	return colenc.SameRows(cols...)
}

func (c *v2Counters) at(i int) cache.Counters {
	return cache.Counters{
		Accesses: c.col[0][i], L1Miss: c.col[1][i], L2Miss: c.col[2][i], L3Miss: c.col[3][i],
		Remote: c.col[4][i], Stall: c.col[5][i], Compute: c.col[6][i],
	}
}

// v2Tasks has one row per task record, plus the CSR offsets (rows+1) of
// each task's slice of the flattened fragment and boundary sections.
type v2Tasks struct {
	ids, parents              []profile.GrainID
	locFile, locFunc          []string
	locLine, depth, createdBy []int
	createTime, createCost    []profile.Time
	startTime, endTime        []profile.Time
	inlined                   []bool
	fragOff, boundOff         []uint32
}

func (t *v2Tasks) schema() []colenc.Col {
	return []colenc.Col{
		colenc.SameRows(
			colenc.Strs(&t.ids),
			colenc.Strs(&t.parents),
			colenc.Strs(&t.locFile),
			colenc.Ivar(&t.locLine),
			colenc.Strs(&t.locFunc),
			colenc.Ivar(&t.depth),
			colenc.U64(&t.createTime),
			colenc.U64(&t.createCost),
			colenc.Ivar(&t.createdBy),
			colenc.U64(&t.startTime),
			colenc.U64(&t.endTime),
			colenc.Bool(&t.inlined),
		),
		colenc.SameRows(colenc.U32(&t.fragOff), colenc.U32(&t.boundOff)),
	}
}

// v2Frags has one row per fragment, tasks' fragments concatenated in task
// order.
type v2Frags struct {
	start, end []profile.Time
	core       []int
	ctr        v2Counters
}

func (f *v2Frags) schema() []colenc.Col {
	return []colenc.Col{colenc.SameRows(
		colenc.U64(&f.start),
		colenc.U64(&f.end),
		colenc.Ivar(&f.core),
		f.ctr.group(),
	)}
}

// v2Bounds has one row per boundary, tasks' boundaries concatenated in
// task order, plus the CSR (rows+1 offsets into joined) of the grains each
// join synchronized.
type v2Bounds struct {
	kind           []profile.BoundaryKind
	at, wait, susp []profile.Time
	child, joined  []profile.GrainID
	loop           []profile.LoopID
	joinedOff      []uint32
}

func (b *v2Bounds) schema() []colenc.Col {
	return []colenc.Col{
		colenc.SameRows(
			colenc.U8(&b.kind),
			colenc.U64(&b.at),
			colenc.Strs(&b.child),
			colenc.U64(&b.wait),
			colenc.U64(&b.susp),
			colenc.Ivar(&b.loop),
		),
		colenc.U32(&b.joinedOff),
		colenc.Strs(&b.joined),
	}
}

// v2Loops has one row per loop record, plus the CSR (rows+1 offsets into
// threads) of the workers that took part in each loop.
type v2Loops struct {
	id                                               []profile.LoopID
	locFile, locFunc                                 []string
	sched                                            []profile.ScheduleKind
	locLine, chunkSize, lo, hi, startThread, threads []int
	start, end                                       []profile.Time
	threadOff                                        []uint32
}

func (l *v2Loops) schema() []colenc.Col {
	return []colenc.Col{
		colenc.SameRows(
			colenc.Ivar(&l.id),
			colenc.Strs(&l.locFile),
			colenc.Ivar(&l.locLine),
			colenc.Strs(&l.locFunc),
			colenc.U8(&l.sched),
			colenc.Ivar(&l.chunkSize),
			colenc.Ivar(&l.lo),
			colenc.Ivar(&l.hi),
			colenc.U64(&l.start),
			colenc.U64(&l.end),
			colenc.Ivar(&l.startThread),
		),
		colenc.U32(&l.threadOff),
		colenc.Ivar(&l.threads),
	}
}

// v2Chunks has one row per chunk record.
type v2Chunks struct {
	loop                 []profile.LoopID
	seq, thread, lo, hi  []int
	start, end, bookkeep []profile.Time
	ctr                  v2Counters
}

func (c *v2Chunks) schema() []colenc.Col {
	return []colenc.Col{colenc.SameRows(
		colenc.Ivar(&c.loop),
		colenc.Ivar(&c.seq),
		colenc.Ivar(&c.thread),
		colenc.Ivar(&c.lo),
		colenc.Ivar(&c.hi),
		colenc.U64(&c.start),
		colenc.U64(&c.end),
		colenc.Uvar(&c.bookkeep),
		c.ctr.group(),
	)}
}

// v2Bookkeeps has one row per book-keeping record.
type v2Bookkeeps struct {
	loop          []profile.LoopID
	thread, grabs []int
	total         []profile.Time
}

func (b *v2Bookkeeps) schema() []colenc.Col {
	return []colenc.Col{colenc.SameRows(
		colenc.Ivar(&b.loop),
		colenc.Ivar(&b.thread),
		colenc.Ivar(&b.grabs),
		colenc.Uvar(&b.total),
	)}
}
