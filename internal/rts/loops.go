package rts

import (
	"fmt"

	"graingraph/internal/cache"
	"graingraph/internal/machine"
	"graingraph/internal/profile"
	"graingraph/internal/sim"
)

// loopThread is one worker's state while executing a parallel for-loop.
type loopThread struct {
	w        *worker
	clock    sim.Time
	grabs    int
	bookkeep sim.Time
}

// chunkCtx is the Ctx chunk bodies receive. Chunks charge cost directly to
// their loop thread; they cannot spawn tasks or nest loops — the profiler,
// like the paper's (which skips 352.nab for this reason), does not support
// nested parallelism.
type chunkCtx struct {
	rt  *runtime
	th  *loopThread
	cnt *cache.Counters
}

func (c *chunkCtx) Compute(cycles uint64) {
	c.th.clock += cycles
	c.cnt.Compute += cycles
}

func (c *chunkCtx) Load(r *machine.Region, off, length int64) {
	c.th.clock += c.rt.hier.AccessRange(c.th.w.id, r.Base+off, length, false, c.th.clock, c.cnt)
}

func (c *chunkCtx) Store(r *machine.Region, off, length int64) {
	c.th.clock += c.rt.hier.AccessRange(c.th.w.id, r.Base+off, length, true, c.th.clock, c.cnt)
}

func (c *chunkCtx) LoadStrided(r *machine.Region, off int64, count int, stride int64) {
	c.th.clock += c.rt.hier.AccessStrided(c.th.w.id, r.Base+off, count, stride, false, c.th.clock, c.cnt)
}

func (c *chunkCtx) Alloc(name string, size int64) *machine.Region {
	return c.rt.mem.Alloc(name, size)
}

func (c *chunkCtx) Spawn(profile.SrcLoc, func(Ctx)) {
	panic("rts: task creation inside a parallel for-loop chunk is nested parallelism, which the profiler does not support")
}

func (c *chunkCtx) TaskWait() {
	panic("rts: TaskWait inside a parallel for-loop chunk is not supported")
}

func (c *chunkCtx) For(profile.SrcLoc, int, int, ForOpt, func(Ctx, int, int)) {
	panic("rts: nested parallel for-loops are not supported by the profiler")
}

// runLoop simulates a parallel for-loop synchronously: loops never overlap
// with outstanding tasks (the master must taskwait first), so all worker
// clocks are free to advance here without going through the task engine.
func (rt *runtime) runLoop(t *task, loc profile.SrcLoc, lo, hi int, opt ForOpt, body func(Ctx, int, int)) {
	if t != rt.root {
		panic("rts: parallel for-loops may only run from the master context (no nested parallelism)")
	}
	if rt.live != 1 || rt.queued != 0 {
		panic(fmt.Sprintf("rts: For with %d live tasks / %d queued: taskwait before entering a parallel loop", rt.live-1, rt.queued))
	}
	if hi <= lo {
		return
	}

	w := rt.workers[t.owner]
	at := w.clock
	rt.endFragment(t, at)
	id := profile.LoopID(rt.loopSeq)
	rt.loopSeq++
	t.rec.Boundaries = append(t.rec.Boundaries, profile.Boundary{
		Kind: profile.BoundaryLoop, At: at, Loop: id,
	})

	p := rt.cfg.Cores
	if opt.NumThreads > 0 && opt.NumThreads < p {
		p = opt.NumThreads
	}
	rec := &profile.LoopRecord{
		ID: id, Loc: loc, Schedule: opt.Schedule, ChunkSize: opt.Chunk,
		Lo: lo, Hi: hi, StartThread: t.owner, Start: at,
	}
	rt.trace.Loops = append(rt.trace.Loops, rec)

	threads := make([]*loopThread, p)
	for i := 0; i < p; i++ {
		threads[i] = &loopThread{w: rt.workers[i], clock: sim.MaxTime(rt.workers[i].clock, at)}
		rec.Threads = append(rec.Threads, i)
	}

	switch opt.Schedule {
	case profile.ScheduleStatic:
		rt.runStatic(rec, threads, lo, hi, opt.Chunk, body)
	case profile.ScheduleDynamic, profile.ScheduleGuided:
		rt.runDynamic(rec, threads, lo, hi, opt, body)
	default:
		panic(fmt.Sprintf("rts: unknown schedule %v", opt.Schedule))
	}

	// Implicit barrier at loop end.
	end := at
	for _, th := range threads {
		if th.clock > end {
			end = th.clock
		}
	}
	rec.End = end
	for _, th := range threads {
		th.w.clock = end
		rt.trace.Bookkeeps = append(rt.trace.Bookkeeps, store(&rt.recs.bookkeeps, profile.BookkeepRecord{
			Loop: id, Thread: th.w.id, Grabs: th.grabs, Total: th.bookkeep,
		}))
	}
	if end > rt.maxTime {
		rt.maxTime = end
	}
	rt.beginFragment(t, end)
}

// execChunk runs one chunk body on th and records it.
func (rt *runtime) execChunk(rec *profile.LoopRecord, th *loopThread, seq, clo, chi int, bookkeep sim.Time, body func(Ctx, int, int)) {
	ck := store(&rt.recs.chunks, profile.ChunkRecord{
		Loop: rec.ID, Seq: seq, Thread: th.w.id,
		Lo: clo, Hi: chi, Bookkeep: bookkeep, Start: th.clock,
	})
	cc := &chunkCtx{rt: rt, th: th, cnt: &ck.Counters}
	body(cc, clo, chi)
	ck.End = th.clock
	th.w.busy += ck.End - ck.Start
	rt.trace.Chunks = append(rt.trace.Chunks, ck)
}

// runStatic precomputes round-robin chunk assignment. A zero chunk size
// splits the iteration space evenly across the threads (OpenMP default).
func (rt *runtime) runStatic(rec *profile.LoopRecord, threads []*loopThread, lo, hi, chunk int, body func(Ctx, int, int)) {
	n := hi - lo
	p := len(threads)
	cs := chunk
	if cs <= 0 {
		cs = (n + p - 1) / p
	}
	cost := rt.cfg.Costs.BookkeepStatic
	seq := 0
	for start := lo; start < hi; start += cs {
		end := start + cs
		if end > hi {
			end = hi
		}
		th := threads[seq%p]
		th.clock += cost
		th.grabs++
		th.bookkeep += cost
		th.w.overhead += cost
		rt.execChunk(rec, th, seq, start, end, cost, body)
		seq++
	}
	// Loop-exit check per thread.
	for _, th := range threads {
		th.clock += cost
		th.grabs++
		th.bookkeep += cost
		th.w.overhead += cost
	}
}

// runDynamic simulates grabbing chunks off a shared iteration counter in
// virtual-time order, modelling lock serialization on the counter. Guided
// scheduling shrinks the chunk geometrically down to the minimum size.
func (rt *runtime) runDynamic(rec *profile.LoopRecord, threads []*loopThread, lo, hi int, opt ForOpt, body func(Ctx, int, int)) {
	minChunk := opt.Chunk
	if minChunk <= 0 {
		minChunk = 1
	}
	p := len(threads)
	counterFree := sim.Time(0)
	next := lo
	seq := 0
	done := make([]bool, p)
	remainingThreads := p
	for remainingThreads > 0 {
		// Pick the earliest thread still in the loop.
		var th *loopThread
		ti := -1
		for i, cand := range threads {
			if done[i] {
				continue
			}
			if th == nil || cand.clock < th.clock {
				th = cand
				ti = i
			}
		}
		// Serialize on the shared counter, then pay delivery bookkeeping.
		acq := sim.MaxTime(th.clock, counterFree) + rt.cfg.Costs.CounterLock
		counterFree = acq
		ready := acq + rt.cfg.Costs.BookkeepDynamic
		bookkeep := ready - th.clock
		th.clock = ready
		th.grabs++
		th.bookkeep += bookkeep
		th.w.overhead += bookkeep

		if next >= hi {
			done[ti] = true
			remainingThreads--
			continue
		}
		cs := minChunk
		if opt.Schedule == profile.ScheduleGuided {
			if g := (hi - next) / (2 * p); g > cs {
				cs = g
			}
		}
		end := next + cs
		if end > hi {
			end = hi
		}
		clo := next
		next = end
		rt.execChunk(rec, th, seq, clo, end, bookkeep, body)
		seq++
	}
}
