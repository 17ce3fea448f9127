package rts

import (
	"graingraph/internal/machine"
	"graingraph/internal/profile"
	"graingraph/internal/sim"
)

// taskCtx is the Ctx given to task bodies (including the root/master task).
type taskCtx struct {
	rt *runtime
	t  *task
}

func (c *taskCtx) w() *worker { return c.rt.workers[c.t.owner] }

// Compute charges pure computation cycles to the running fragment.
func (c *taskCtx) Compute(cycles uint64) {
	c.w().clock += cycles
	c.t.cur.Compute += cycles
}

// Load charges a sequential read scan through the cache hierarchy.
func (c *taskCtx) Load(r *machine.Region, off, length int64) {
	lat := c.rt.hier.AccessRange(c.t.owner, r.Base+off, length, false, c.w().clock, &c.t.cur)
	c.w().clock += lat
}

// Store charges a sequential write scan through the cache hierarchy.
func (c *taskCtx) Store(r *machine.Region, off, length int64) {
	lat := c.rt.hier.AccessRange(c.t.owner, r.Base+off, length, true, c.w().clock, &c.t.cur)
	c.w().clock += lat
}

// LoadStrided charges count reads with the given byte stride.
func (c *taskCtx) LoadStrided(r *machine.Region, off int64, count int, stride int64) {
	lat := c.rt.hier.AccessStrided(c.t.owner, r.Base+off, count, stride, false, c.w().clock, &c.t.cur)
	c.w().clock += lat
}

// Alloc reserves a region in simulated memory.
func (c *taskCtx) Alloc(name string, size int64) *machine.Region {
	return c.rt.mem.Alloc(name, size)
}

// Spawn creates a child task. The parent's current fragment ends at the
// fork; the spawn cost becomes the child's creation cost. Under a throttling
// flavour the child may execute undeferred: the parent suspends until the
// child completes on the same worker.
func (c *taskCtx) Spawn(loc profile.SrcLoc, body func(Ctx)) {
	rt, t := c.rt, c.t
	w := c.w()
	pre := w.clock

	child := rt.newTask(store(&rt.recs.tasks, profile.TaskRecord{
		ID: rt.ids.Child(t.rec.ID, t.spawnSeq), Parent: t.num, Loc: loc,
		Depth: t.rec.Depth + 1, CreatedBy: int32(w.id),
	}), t, body)
	t.spawnSeq++
	t.outstanding++
	t.pendingJoin = append(t.pendingJoin, child.num)

	rt.endFragment(t, pre)
	t.rec.Boundaries = append(t.rec.Boundaries, profile.Boundary{
		Kind: profile.BoundaryFork, At: pre, Child: child.num,
	})

	throttled := rt.shouldThrottle(w)
	spawnCost := rt.cfg.Costs.Spawn
	if throttled {
		spawnCost = rt.cfg.Costs.SpawnInlined
	}
	w.clock += spawnCost
	w.overhead += spawnCost
	child.rec.CreateTime = w.clock
	child.rec.CreateCost = spawnCost
	child.readyAt = w.clock
	rt.live++
	w.count.Spawns++

	if throttled {
		// Undeferred execution: the child runs right now on this worker and
		// the parent resumes once it completes.
		child.rec.Inlined = true
		w.count.Inlined++
		child.notifyOnDone = t
		w.next = child
		t.parked = parkImmediateSpawn
		t.coro.Park()
		return
	}

	if rt.cfg.Scheduler == CentralQueueSched {
		acq := sim.MaxTime(w.clock, rt.centralFree)
		done := acq + rt.cfg.Costs.QueueOp
		rt.centralFree = done
		w.overhead += done - w.clock
		w.count.QueueOps++
		w.clock = done
		child.readyAt = done
		rt.central.PushBottom(child)
	} else {
		w.deque.PushBottom(child)
		w.count.Pushes++
	}
	rt.queued++
	rt.beginFragment(t, w.clock)
}

// TaskWait synchronizes with all children spawned since the last join.
// If children are still running the task suspends; its worker goes back to
// the scheduler and typically executes those children (help-first,
// tied-task semantics: the task later resumes on the same worker).
func (c *taskCtx) TaskWait() {
	rt, t := c.rt, c.t
	w := c.w()

	if t.outstanding == 0 {
		if len(t.pendingJoin) == 0 {
			return // nothing to synchronize with
		}
		// All children already finished: pay only the join bookkeeping.
		at := w.clock
		rt.endFragment(t, at)
		joined := rt.recs.join(t)
		cost := rt.cfg.Costs.JoinPerChild * uint64(len(joined))
		w.clock += cost
		w.overhead += cost
		t.rec.Boundaries = append(t.rec.Boundaries, profile.Boundary{
			Kind: profile.BoundaryJoin, At: at, Joined: joined, Wait: cost,
		})
		rt.beginFragment(t, w.clock)
		return
	}

	at := w.clock
	rt.endFragment(t, at)
	joined := rt.recs.join(t)
	t.rec.Boundaries = append(t.rec.Boundaries, profile.Boundary{
		Kind: profile.BoundaryJoin, At: at, Joined: joined,
	})
	t.waiting = true
	t.waitStart = at
	t.parked = parkTaskWait
	w.count.Parks++
	t.coro.Park()
}

// For runs a parallel for-loop; see runtime.runLoop.
func (c *taskCtx) For(loc profile.SrcLoc, lo, hi int, opt ForOpt, body func(Ctx, int, int)) {
	c.rt.runLoop(c.t, loc, lo, hi, opt, body)
}
