package ggp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync/atomic"

	"graingraph/internal/colenc"
	"graingraph/internal/obs"
	"graingraph/internal/profile"
	"graingraph/internal/runpool"
)

// Decoded is the result of decoding an artifact of either format version:
// the trace, and for v2 artifacts any fresh derived-index sidecars beside
// it. No decode returns a grain graph; callers build it from the trace
// with core.Build, whatever the version.
type Decoded struct {
	// Version is the artifact's format version (1 or 2).
	Version int
	// Trace is the decoded, validated trace.
	Trace *profile.Trace
	// ContentKey identifies the artifact's content sections (v2 only);
	// sidecars written later must carry this key to be trusted.
	ContentKey uint32
	// SidecarStale reports that at least one sidecar was present but
	// discarded — its content key or format version did not match the
	// content sections, so the derived data was rebuilt rather than trusted.
	SidecarStale bool

	lodData   []byte
	queryData []byte
}

// LodSidecar returns the encoded lod summary index persisted with the
// artifact, or nil if absent or stale. The slice is a copy, so the
// artifact's bytes need not outlive the decode.
func (d *Decoded) LodSidecar() []byte { return d.lodData }

// QuerySidecar returns the encoded query metric table persisted with the
// artifact, or nil if absent or stale. The slice is a copy, like
// LodSidecar's.
func (d *Decoded) QuerySidecar() []byte { return d.queryData }

// HasSidecars reports whether the artifact carried a complete, fresh set
// of derived-index sidecars (lod, query) — the signal the serving layer
// uses to decide whether an in-place upgrade is worthwhile.
func (d *Decoded) HasSidecars() bool {
	return d.lodData != nil && d.queryData != nil
}

// Decode decodes an artifact of either format version. v1 streams go
// through the event-stream reader; v2 streams decode their column
// sections in parallel on pool (nil or single-worker pools decode
// serially, byte-identically). Section decode is reported as child spans
// of sp (decode:tasks, decode:frags, decode:sidecar:*…) so
// phase profiles attribute the cold path section by section. The returned
// trace is checksum-verified and validated; corrupt input of either
// version yields a structured error, never a panic.
func Decode(data []byte, pool *runpool.Runner, sp *obs.Span) (*Decoded, error) {
	if len(data) < len(Magic)+1 {
		return nil, fmt.Errorf("%w: %d-byte stream has no header", ErrTruncated, len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, ErrMagic
	}
	switch v := data[len(Magic)]; v {
	case Version:
		tr, err := readV1(data, sp)
		if err != nil {
			return nil, err
		}
		return &Decoded{Version: 1, Trace: tr}, nil
	case Version2:
		return decodeV2(data, pool, sp)
	default:
		return nil, fmt.Errorf("%w: artifact version %d, reader supports <= %d",
			ErrVersion, v, Version2)
	}
}

// DecodeFile decodes the artifact at path with Decode.
func DecodeFile(path string, pool *runpool.Runner, sp *obs.Span) (*Decoded, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data, pool, sp)
}

// readV1 decodes a v1 stream, reporting the parse and the numbering as
// separate phases under sp.
func readV1(data []byte, sp *obs.Span) (*profile.Trace, error) {
	csp := sp.Child("decode:v1stream")
	tr, err := readTrace(data)
	csp.End()
	if err != nil {
		return nil, err
	}
	if err := indexAndValidate(tr, sp); err != nil {
		return nil, err
	}
	return tr, nil
}

// v2Section is one framed section: a payload subslice of the input buffer
// plus its stored checksum. Payloads are verified inside the parallel
// decode jobs, not during the serial walk, so checksum cost parallelizes
// with decode cost.
type v2Section struct {
	id      byte
	payload []byte
	crc     uint32
}

// v2Artifact holds the decoded columns of every content section of one
// artifact.
type v2Artifact struct {
	meta      v2Meta
	workers   v2Workers
	tasks     v2Tasks
	frags     v2Frags
	bounds    v2Bounds
	loops     v2Loops
	chunks    v2Chunks
	bookkeeps v2Bookkeeps
}

// v2ContentSection is one content section: its id, the span its decode is
// reported under, and its columns.
type v2ContentSection struct {
	id   byte
	span string
	cols v2Cols
}

// content lists the content sections. All are required except workers,
// which the writer omits for a trace without per-worker statistics.
func (a *v2Artifact) content() []v2ContentSection {
	return []v2ContentSection{
		{id: secV2Meta, span: "decode:meta", cols: &a.meta},
		{id: secV2Workers, span: "decode:workers", cols: &a.workers},
		{id: secV2Tasks, span: "decode:tasks", cols: &a.tasks},
		{id: secV2Frags, span: "decode:frags", cols: &a.frags},
		{id: secV2Bounds, span: "decode:bounds", cols: &a.bounds},
		{id: secV2Loops, span: "decode:loops", cols: &a.loops},
		{id: secV2Chunks, span: "decode:chunks", cols: &a.chunks},
		{id: secV2Bookkeeps, span: "decode:bookkeeps", cols: &a.bookkeeps},
	}
}

// decodeV2 walks the section frames serially (cheap — payloads are
// subslices), verifies the trailer's content key against the stored
// per-section checksums, then decodes all sections in parallel on pool,
// one job per section.
func decodeV2(data []byte, pool *runpool.Runner, sp *obs.Span) (*Decoded, error) {
	secs, key, err := walkV2(data)
	if err != nil {
		return nil, err
	}
	byID := make(map[byte]*v2Section, len(secs))
	for i := range secs {
		s := &secs[i]
		if s.id == secV2Trailer {
			continue
		}
		if _, dup := byID[s.id]; dup && v2Known(s.id) {
			return nil, fmt.Errorf("ggp: duplicate section 0x%02x", s.id)
		}
		byID[s.id] = s
	}

	dec := &Decoded{Version: 2, ContentKey: key}
	a := &v2Artifact{}
	var stale atomic.Bool

	type job struct {
		name string
		sec  *v2Section
		run  func(payload []byte) error
	}
	var jobs []job
	// verifyOnly checks a section's checksum without materializing it —
	// used for unknown and reserved sections, so corruption is detected
	// there too.
	verifyOnly := func([]byte) error { return nil }

	for _, c := range a.content() {
		s, cols := byID[c.id], c.cols
		switch {
		case s == nil && c.id != secV2Workers:
			return nil, fmt.Errorf("%w: missing section 0x%02x", ErrTruncated, c.id)
		case s == nil:
		default:
			jobs = append(jobs, job{c.span, s, func(payload []byte) error {
				return colenc.Decode(payload, cols.schema()...)
			}})
		}
	}
	// A sidecar that is intact but keyed to other content, or of another
	// format version, is discarded and rebuilt, never trusted.
	for _, sc := range []struct {
		id   byte
		name string
		use  func(body []byte)
	}{
		{secV2Lod, "decode:sidecar:lod", func(body []byte) { dec.lodData = body }},
		{secV2Query, "decode:sidecar:query", func(body []byte) { dec.queryData = body }},
	} {
		s, use := byID[sc.id], sc.use
		if s != nil {
			jobs = append(jobs, job{sc.name, s, func(payload []byte) error {
				body, ok, err := sidecarBody(payload, key)
				if err != nil {
					return err
				}
				if ok {
					// A copy: what the analysis keeps must not hold the
					// whole artifact's bytes alive beside the graph.
					use(bytes.Clone(body))
				} else {
					stale.Store(true)
				}
				return nil
			}})
		}
	}
	for i := range secs {
		if s := &secs[i]; !v2Known(s.id) && s.id != secV2Trailer {
			jobs = append(jobs, job{"decode:verify", s, verifyOnly})
		}
	}

	if _, err := runpool.Map(pool, len(jobs), func(i int) (struct{}, error) {
		j := jobs[i]
		csp := sp.Child(j.name)
		err := ErrCRC
		if crc32.Checksum(j.sec.payload, castagnoli) == j.sec.crc {
			err = j.run(j.sec.payload)
		}
		csp.End()
		if err != nil {
			return struct{}{}, fmt.Errorf("ggp: section 0x%02x: %w", j.sec.id, err)
		}
		return struct{}{}, nil
	}); err != nil {
		return nil, err
	}
	dec.SidecarStale = stale.Load()

	asp := sp.Child("assemble:trace")
	tr, err := a.assembleTrace()
	asp.End()
	if err != nil {
		return nil, err
	}
	if err := indexAndValidate(tr, sp); err != nil {
		return nil, err
	}
	dec.Trace = tr
	return dec, nil
}

// walkV2 frames the section list and verifies the trailer: its own
// checksum, its section count, and the content key recomputed from the
// stored per-section checksums of the content sections. Payload checksums
// are deferred to the parallel decode.
func walkV2(data []byte) ([]v2Section, uint32, error) {
	off := len(Magic) + 1
	var secs []v2Section
	var crcs []byte
	sawTrailer := false
	var key uint32
	for !sawTrailer {
		if off >= len(data) {
			return nil, 0, fmt.Errorf("%w: stream ends before trailer", ErrTruncated)
		}
		id := data[off]
		off++
		size, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("%w: unterminated section length", ErrTruncated)
		}
		off += n
		if size > uint64(len(data)-off) || len(data)-off-int(size) < 4 {
			return nil, 0, fmt.Errorf("%w: section 0x%02x length %d exceeds stream", ErrTruncated, id, size)
		}
		payload := data[off : off+int(size) : off+int(size)]
		off += int(size)
		stored := binary.LittleEndian.Uint32(data[off:])
		off += 4
		secs = append(secs, v2Section{id: id, payload: payload, crc: stored})
		switch {
		case id == secV2Trailer:
			sawTrailer = true
			if crc32.Checksum(payload, castagnoli) != stored {
				return nil, 0, fmt.Errorf("%w: trailer checksum", ErrCRC)
			}
			if len(payload) < 4 {
				return nil, 0, fmt.Errorf("%w: trailer payload is %d bytes", ErrCRC, len(payload))
			}
			key = binary.LittleEndian.Uint32(payload)
			var count uint64
			if err := colenc.Decode(payload[4:], colenc.Uvarint(&count)); err != nil {
				return nil, 0, fmt.Errorf("%w: trailer section count: %v", ErrCRC, err)
			}
			if count != uint64(len(secs)-1) {
				return nil, 0, fmt.Errorf("%w: trailer counts %d sections, stream has %d", ErrCRC, count, len(secs)-1)
			}
		case isV2Sidecar(id):
			// Sidecars do not feed the content key.
		default:
			crcs = binary.LittleEndian.AppendUint32(crcs, stored)
		}
	}
	if got := crc32.Checksum(crcs, castagnoli); got != key {
		return nil, 0, fmt.Errorf("%w: content key computed %08x, stored %08x", ErrCRC, got, key)
	}
	return secs, key, nil
}

func v2Known(id byte) bool {
	switch id {
	case secV2Meta, secV2Workers, secV2Tasks, secV2Frags, secV2Bounds, secV2Loops,
		secV2Chunks, secV2Bookkeeps, secV2Lod, secV2Query:
		return true
	}
	return false
}

// sidecarBody unwraps a checksum-verified sidecar payload's header.
// ok=false (with no error) means the sidecar is intact but not trustworthy
// — wrong format version or content key — and must be discarded.
func sidecarBody(payload []byte, key uint32) (body []byte, ok bool, err error) {
	if len(payload) < 5 {
		return nil, false, fmt.Errorf("sidecar payload is %d bytes, want >= 5", len(payload))
	}
	if payload[0] != sidecarFormatVersion || binary.LittleEndian.Uint32(payload[1:]) != key {
		return nil, false, nil
	}
	return payload[5:], true, nil
}

// ---- assembly ----

// checkRows validates a section's row count against the count another
// section (meta, or the section its rows index into) says it has.
func checkRows(name string, got, want int) error {
	if got != want {
		return fmt.Errorf("ggp: %s has %d rows, want %d", name, got, want)
	}
	return nil
}

// checkOffsets validates a CSR offset column: n+1 monotonic entries from 0
// to total.
func checkOffsets(name string, off []uint32, n, total int) error {
	if len(off) != n+1 {
		return fmt.Errorf("ggp: %s offsets have %d entries, want %d", name, len(off), n+1)
	}
	if off[0] != 0 || int(off[n]) != total {
		return fmt.Errorf("ggp: %s offsets span [%d,%d], want [0,%d]", name, off[0], off[n], total)
	}
	for i := 0; i < n; i++ {
		if off[i+1] < off[i] {
			return fmt.Errorf("ggp: %s offsets not monotonic at %d", name, i)
		}
	}
	return nil
}

// assembleTrace scatters the decoded trace sections into records. Each
// section's columns already agree on their row count (the schemas group
// them); what is checked here is agreement between sections.
func (a *v2Artifact) assembleTrace() (*profile.Trace, error) {
	meta, tc, fc, bc, lc, cc, kc := &a.meta, &a.tasks, &a.frags, &a.bounds, &a.loops, &a.chunks, &a.bookkeeps
	nT, nF, nB := len(tc.ids), len(fc.start), len(bc.kind)
	nL, nC, nK := len(lc.id), len(cc.loop), len(kc.loop)
	for _, err := range []error{
		checkRows("tasks", nT, int(meta.nTasks)),
		checkRows("loops", nL, int(meta.nLoops)),
		checkRows("chunks", nC, int(meta.nChunks)),
		checkRows("bookkeeps", nK, int(meta.nBookkeeps)),
		checkOffsets("fragment", tc.fragOff, nT, nF),
		checkOffsets("boundary", tc.boundOff, nT, nB),
		checkOffsets("joined", bc.joinedOff, nB, len(bc.joined)),
		checkOffsets("loop thread", lc.threadOff, nL, len(lc.threads)),
	} {
		if err != nil {
			return nil, err
		}
	}

	tr := &profile.Trace{
		Program:    meta.program,
		Cores:      int(meta.cores),
		Sockets:    int(meta.sockets),
		Scheduler:  meta.scheduler,
		Flavor:     meta.flavor,
		PagePolicy: meta.pagePolicy,
		Start:      meta.start,
		End:        meta.end,
	}
	if n := len(a.workers.busy); n > 0 {
		tr.Workers = make([]profile.WorkerStat, n)
		for i := range tr.Workers {
			tr.Workers[i] = profile.WorkerStat{Busy: a.workers.busy[i], Overhead: a.workers.over[i]}
		}
	}

	frags := make([]profile.Fragment, nF)
	for i := range frags {
		frags[i] = profile.Fragment{Start: fc.start[i], End: fc.end[i], Core: fc.core[i], Counters: fc.ctr.at(i)}
	}
	// The references resolve through the index the trace adopts.
	x := profile.NewIDIndex(tc.ids, nC)
	tr.AdoptIDIndex(x)
	bounds := make([]profile.Boundary, nB)
	joined := make([]int32, len(bc.joined))
	tasks := make([]profile.TaskRecord, nT)
	tr.Tasks = make([]*profile.TaskRecord, nT)
	for i := range tasks {
		t := &tasks[i]
		t.ID = tc.ids[i]
		var err error
		t.Parent, err = resolveRef(x, t.ID, "parent", tc.parents[i])
		for r := tc.boundOff[i]; r < tc.boundOff[i+1] && err == nil; r++ {
			if bc.kind[r] > profile.BoundaryLoop {
				return nil, fmt.Errorf("ggp: unknown boundary kind %d", bc.kind[r])
			}
			b := &bounds[r]
			*b = profile.Boundary{Kind: bc.kind[r], At: bc.at[r], Wait: bc.wait[r], Suspended: bc.susp[r], Loop: bc.loop[r]}
			var child int32
			child, err = resolveRef(x, t.ID, "child", bc.child[r])
			if b.Kind == profile.BoundaryFork {
				b.Child = child
			}
			lo, hi := bc.joinedOff[r], bc.joinedOff[r+1]
			for j := lo; j < hi && err == nil; j++ {
				joined[j], err = resolveRef(x, t.ID, "joined grain", bc.joined[j])
			}
			if hi > lo {
				b.Joined = joined[lo:hi:hi]
			}
		}
		if err != nil {
			return nil, fmt.Errorf("ggp: %w", err)
		}
		t.Loc = profile.SrcLoc{File: tc.locFile[i], Line: tc.locLine[i], Func: tc.locFunc[i]}
		t.Depth = tc.depth[i]
		t.CreateTime = tc.createTime[i]
		t.CreateCost = tc.createCost[i]
		t.CreatedBy = tc.createdBy[i]
		t.StartTime = tc.startTime[i]
		t.EndTime = tc.endTime[i]
		t.Inlined = tc.inlined[i]
		if lo, hi := tc.fragOff[i], tc.fragOff[i+1]; hi > lo {
			t.Fragments = frags[lo:hi:hi]
		}
		if lo, hi := tc.boundOff[i], tc.boundOff[i+1]; hi > lo {
			t.Boundaries = bounds[lo:hi:hi]
		}
		tr.Tasks[i] = t
	}

	if nL > 0 {
		loops := make([]profile.LoopRecord, nL)
		tr.Loops = make([]*profile.LoopRecord, nL)
		for i := range loops {
			if lc.sched[i] > profile.ScheduleGuided {
				return nil, fmt.Errorf("ggp: unknown loop schedule %d", lc.sched[i])
			}
			l := &loops[i]
			l.ID = lc.id[i]
			l.Loc = profile.SrcLoc{File: lc.locFile[i], Line: lc.locLine[i], Func: lc.locFunc[i]}
			l.Schedule = lc.sched[i]
			l.ChunkSize = lc.chunkSize[i]
			l.Lo = lc.lo[i]
			l.Hi = lc.hi[i]
			l.Start = lc.start[i]
			l.End = lc.end[i]
			l.StartThread = lc.startThread[i]
			if lo, hi := lc.threadOff[i], lc.threadOff[i+1]; hi > lo {
				l.Threads = lc.threads[lo:hi:hi]
			}
			tr.Loops[i] = l
		}
	}

	if nC > 0 {
		chunks := make([]profile.ChunkRecord, nC)
		tr.Chunks = make([]*profile.ChunkRecord, nC)
		for i := range chunks {
			chunks[i] = profile.ChunkRecord{
				Loop:     cc.loop[i],
				Seq:      cc.seq[i],
				Thread:   cc.thread[i],
				Lo:       cc.lo[i],
				Hi:       cc.hi[i],
				Start:    cc.start[i],
				End:      cc.end[i],
				Bookkeep: cc.bookkeep[i],
				Counters: cc.ctr.at(i),
			}
			tr.Chunks[i] = &chunks[i]
		}
	}

	if nK > 0 {
		bks := make([]profile.BookkeepRecord, nK)
		tr.Bookkeeps = make([]*profile.BookkeepRecord, nK)
		for i := range bks {
			bks[i] = profile.BookkeepRecord{Loop: kc.loop[i], Thread: kc.thread[i], Grabs: kc.grabs[i], Total: kc.total[i]}
			tr.Bookkeeps[i] = &bks[i]
		}
	}

	return tr, nil
}

// resolveRef resolves a reference that a format stores as a task ID
// through the decode's index: -1 for an empty one, an error naming task
// and the reference when no task record carries it. A boundary keeps the
// child it names only if it is a fork (as the runtimes record it), and
// Validate rejects a fork's -1.
func resolveRef[S ~string | ~[]byte](x *profile.IDIndex, task profile.GrainID, what string, id S) (int32, error) {
	if len(id) == 0 {
		return -1, nil
	}
	if n := profile.Resolve(x, id); n >= 0 {
		return n, nil
	}
	return -1, fmt.Errorf("task %q: %s %q names no recorded task", task, what, id)
}

// indexAndValidate numbers tr's grains and validates the result, reporting
// both as the index:grains phase under sp: with the references resolved
// during the decode, numbering adds only the chunk IDs to the trace's
// IDIndex.
func indexAndValidate(tr *profile.Trace, sp *obs.Span) error {
	isp := sp.Child("index:grains")
	defer isp.End()
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("ggp: invalid trace: %w", err)
	}
	return nil
}
