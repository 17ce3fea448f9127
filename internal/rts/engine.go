package rts

import (
	"fmt"
	"math/rand/v2"

	"graingraph/internal/cache"
	"graingraph/internal/machine"
	"graingraph/internal/profile"
	"graingraph/internal/sched"
	"graingraph/internal/sim"
)

// parkReason says why a task's coroutine yielded.
type parkReason int

const (
	parkNone parkReason = iota
	parkTaskWait
	parkImmediateSpawn
)

// task is the runtime's in-flight task state wrapping the profile record.
// A task is free once its body has returned and none of its children is
// unfinished: nothing then reaches it, so the runtime recycles its storage
// for a later Spawn (see release). The record lives in the run's slab and
// stays with the trace.
type task struct {
	rec  *profile.TaskRecord
	body func(Ctx)
	ctx  taskCtx  // the Ctx body runs with
	coro sim.Coro // body's coroutine, Init at the task's first run

	parent      *task
	owner       int // worker the task is tied to; -1 before first run
	spawnSeq    int
	num         int32   // grain number: the record's index in the trace
	outstanding int     // unfinished direct children
	pendingJoin []int32 // children created since the last join

	waiting      bool // suspended in taskwait
	resumable    bool
	readyAt      sim.Time
	waitStart    sim.Time
	parked       parkReason
	notifyOnDone *task // task to resume when this (inlined) task ends

	started   bool
	returned  bool // body has returned; the task is finished
	fragStart sim.Time
	cur       cache.Counters
}

// worker is one virtual core's scheduler state.
type worker struct {
	id       int
	clock    sim.Time
	deque    sched.Deque[*task]
	resume   []*task // tied suspended tasks that became resumable (LIFO)
	next     *task   // forced next task (undeferred execution)
	busy     sim.Time
	overhead sim.Time
	// count tallies the scheduler events performed on this worker. Nothing
	// in the runtime reads it: it is the reference that white-box tests
	// hold profile.Trace.WorkerCounts to.
	count profile.WorkerCounts
}

// runtime is the whole simulated machine + scheduler.
type runtime struct {
	cfg  Config
	topo *machine.Topology
	mem  *machine.Memory
	hier *cache.Hierarchy

	workers     []*worker
	central     sched.Deque[*task] // central-queue scheduler: used FIFO only
	centralFree sim.Time           // central queue availability (lock serialization)
	queued      int                // tasks currently in queues (GCC throttle)

	rng *rand.Rand
	pcg *rand.PCG // rng's source, so tests can snapshot and restore it
	// pool carries the task bodies' coroutines. It keeps every carrier a
	// body finishes on, so a run builds as many carriers as it has bodies
	// started and unfinished at its peak.
	pool *sim.Pool
	// free holds finished tasks whose storage the next Spawn reuses.
	free []*task
	// stealable lists, in worker order, the workers whose deques are
	// non-empty at the current step (work-stealing only).
	stealable []*worker

	trace   *profile.Trace
	recs    records
	ids     profile.IDArena // the tasks' IDs
	root    *task
	live    int
	loopSeq int
	maxTime sim.Time
}

// Run executes program under cfg and returns the recorded trace. The
// run's cache hierarchy goes back to cache.New's free list for the next
// run of the same geometry.
func Run(cfg Config, program func(Ctx)) *profile.Trace {
	rt := run(cfg, program)
	rt.hier.Release()
	return rt.trace
}

// run is Run returning the whole finished runtime, for white-box tests.
func run(cfg Config, program func(Ctx)) *runtime {
	rt := newRuntime(cfg, program)
	defer rt.pool.Close()
	rt.loop()
	rt.finalize()
	return rt
}

// newRuntime sets up a run of program, ready for its first step.
func newRuntime(cfg Config, program func(Ctx)) *runtime {
	topo := machine.Default48()
	cfg = cfg.withDefaults(topo)
	rt := &runtime{
		cfg:  cfg,
		topo: topo,
		pcg:  rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15),
		pool: sim.NewPool(),
	}
	rt.rng = rand.New(rt.pcg)
	rt.mem = machine.NewMemory(rt.topo, cfg.Policy)
	rt.hier = cache.New(cfg.Cache, rt.topo, rt.mem)
	for i := 0; i < cfg.Cores; i++ {
		rt.workers = append(rt.workers, &worker{id: i})
	}
	rt.trace = &profile.Trace{
		Program:    cfg.Program,
		Cores:      cfg.Cores,
		Sockets:    rt.topo.NumSockets(),
		Scheduler:  cfg.Scheduler.String(),
		Flavor:     cfg.Flavor.String(),
		PagePolicy: cfg.Policy.String(),
	}

	rec := store(&rt.recs.tasks, profile.TaskRecord{ID: profile.RootID, Parent: -1, Loc: profile.Loc(cfg.Program+".go", 1, "main")})
	rt.root = rt.newTask(rec, nil, func(c Ctx) {
		program(c)
		// Implicit end-of-parallel-region barrier: join any stragglers.
		c.TaskWait()
	})
	rt.live = 1
	rt.root.readyAt = 0
	rt.workers[0].next = rt.root
	return rt
}

// action is one schedulable step for a worker.
type action struct {
	w      *worker
	t      *task
	victim *worker // steal source (actSteal only)
	kind   actionKind
	at     sim.Time // clock after acquiring the task, before running it
}

type actionKind int

const (
	actNext actionKind = iota
	actResume
	actPop
	actSteal
	actCentral
)

func (rt *runtime) loop() {
	for rt.live > 0 {
		a, ok := rt.bestAction()
		if !ok {
			panic(fmt.Sprintf("rts: deadlock: %d live tasks but no runnable action", rt.live))
		}
		rt.perform(a)
	}
}

// bestAction finds the globally earliest (in virtual time) scheduler step.
// Ties are broken by action priority (local work before steals); remaining
// exact ties are resolved uniformly at random (seeded, so runs stay
// deterministic) — this models random victim selection for steals and
// contention on the central queue, both of which decide which core a grain
// lands on and therefore the scatter metric.
//
// Candidates are considered in worker order, and each exact tie draws from
// the generator, so the order and the set of tied candidates are part of
// the result. An idle worker's steal candidates are the tops of the
// stealable deques, collected once per step; the worker skips them all when
// even the earliest top could not beat or tie the best candidate so far —
// exactly the candidates consider would reject without drawing.
func (rt *runtime) bestAction() (action, bool) {
	best := action{}
	found := false
	ties := 1
	consider := func(cand action) {
		switch {
		case !found,
			cand.at < best.at,
			cand.at == best.at && cand.kind < best.kind:
			best = cand
			found = true
			ties = 1
		case cand.at == best.at && cand.kind == best.kind:
			ties++
			if rt.rng.IntN(ties) == 0 {
				best = cand
			}
		}
	}

	minTop := sim.Time(0)
	if rt.cfg.Scheduler != CentralQueueSched {
		rt.stealable = rt.stealable[:0]
		for _, v := range rt.workers {
			if t, ok := v.deque.PeekTop(); ok {
				if len(rt.stealable) == 0 || t.readyAt < minTop {
					minTop = t.readyAt
				}
				rt.stealable = append(rt.stealable, v)
			}
		}
	}

	for _, w := range rt.workers {
		if w.next != nil {
			consider(action{w: w, t: w.next, kind: actNext,
				at: sim.MaxTime(w.clock, w.next.readyAt)})
			continue // forced: this worker can do nothing else first
		}
		if n := len(w.resume); n > 0 {
			t := w.resume[n-1]
			consider(action{w: w, t: t, kind: actResume,
				at: sim.MaxTime(w.clock, t.readyAt) + rt.cfg.Costs.Resume})
		}
		if t, ok := w.deque.PeekBottom(); ok {
			consider(action{w: w, t: t, kind: actPop,
				at: sim.MaxTime(w.clock, t.readyAt) + rt.cfg.Costs.Pop})
		}
		if rt.cfg.Scheduler == CentralQueueSched {
			if t, ok := rt.central.PeekTop(); ok {
				at := sim.MaxTime(sim.MaxTime(w.clock, rt.centralFree), t.readyAt) +
					rt.cfg.Costs.QueueOp
				consider(action{w: w, t: t, kind: actCentral, at: at})
			}
		} else if w.deque.Len() == 0 && len(rt.stealable) > 0 {
			// Steal candidates: every stealable victim's top, in worker
			// order, unless none can win or tie.
			if earliest := sim.MaxTime(w.clock, minTop) + rt.cfg.Costs.Steal; found &&
				(earliest > best.at || earliest == best.at && best.kind < actSteal) {
				continue
			}
			for _, v := range rt.stealable {
				t, _ := v.deque.PeekTop()
				consider(action{w: w, t: t, victim: v, kind: actSteal,
					at: sim.MaxTime(w.clock, t.readyAt) + rt.cfg.Costs.Steal})
			}
		}
	}
	return best, found
}

func (rt *runtime) perform(a action) {
	w := a.w
	switch a.kind {
	case actNext:
		w.clock = a.at
		w.next = nil
	case actResume:
		// Remove the specific task (top of resume stack by construction).
		w.resume = w.resume[:len(w.resume)-1]
		w.overhead += rt.cfg.Costs.Resume
		w.clock = a.at
		a.t.resumable = false
		w.count.Resumes++
	case actPop:
		t, _ := w.deque.PopBottom()
		if t != a.t {
			panic("rts: deque changed between peek and pop")
		}
		rt.queued--
		w.overhead += rt.cfg.Costs.Pop
		w.clock = a.at
		w.count.Pops++
	case actSteal:
		t, _ := a.victim.deque.StealTop()
		if t != a.t {
			panic("rts: victim deque changed between peek and steal")
		}
		rt.queued--
		w.overhead += rt.cfg.Costs.Steal
		w.clock = a.at
		w.count.Steals++
	case actCentral:
		t, _ := rt.central.StealTop()
		if t != a.t {
			panic("rts: central queue changed between peek and pop")
		}
		rt.queued--
		rt.centralFree = a.at // queue busy until the op completes
		w.overhead += rt.cfg.Costs.QueueOp
		w.clock = a.at
		w.count.QueueOps++
	}
	rt.runOn(w, a.t)
}

// runOn resumes (or starts) t's coroutine on w until it parks or finishes.
func (rt *runtime) runOn(w *worker, t *task) {
	if !t.started {
		t.started = true
		t.owner = w.id
		t.rec.StartTime = w.clock
		rt.recs.startTask(t)
		rt.pool.Init(&t.coro, runBody, t)
	} else if t.parked == parkTaskWait {
		// Finalize the join boundary recorded at suspension.
		b := &t.rec.Boundaries[len(t.rec.Boundaries)-1]
		b.Suspended = w.clock - t.waitStart
		b.Wait = rt.cfg.Costs.Resume + rt.cfg.Costs.JoinPerChild*uint64(len(b.Joined))
	}
	t.parked = parkNone
	rt.beginFragment(t, w.clock)
	if st := t.coro.Resume(); st == sim.Done {
		rt.finishTask(w, t)
	}
}

// runBody is every task's coroutine function: t's body on t's own Ctx.
func runBody(arg any) {
	t := arg.(*task)
	t.body(&t.ctx)
}

// newTask returns a task for rec running body, on recycled storage when a
// freed task is available, and appends rec to the trace: the task's grain
// number is its record's index there.
func (rt *runtime) newTask(rec *profile.TaskRecord, parent *task, body func(Ctx)) *task {
	var t *task
	if n := len(rt.free); n > 0 {
		t = rt.free[n-1]
		rt.free = rt.free[:n-1]
	} else {
		t = new(task)
	}
	*t = task{rec: rec, body: body, parent: parent, owner: -1, num: int32(len(rt.trace.Tasks))}
	t.ctx = taskCtx{rt: rt, t: t}
	rt.trace.Tasks = append(rt.trace.Tasks, rec)
	return t
}

// release frees t once its body has returned and no child of it is
// unfinished. Nothing reaches t then: a returned task sits in no deque,
// queue, resume stack or forced slot; only an unfinished child still holds
// a parent pointer, and finished children have dropped theirs. An inlined
// child's notifyOnDone names a parent parked in Spawn, which has not
// returned. Each task is freed once, by whichever of its own finish and
// its last child's finish comes second. The root is never freed.
func (rt *runtime) release(t *task) {
	if t.returned && t.outstanding == 0 && t != rt.root {
		rt.free = append(rt.free, t)
	}
}

// beginFragment opens a new fragment for t at time `at`.
func (rt *runtime) beginFragment(t *task, at sim.Time) {
	t.fragStart = at
	t.cur = cache.Counters{}
}

// endFragment closes t's current fragment at time `at` and records it.
func (rt *runtime) endFragment(t *task, at sim.Time) {
	w := rt.workers[t.owner]
	t.rec.Fragments = append(t.rec.Fragments, profile.Fragment{
		Start: t.fragStart, End: at, Core: t.owner, Counters: t.cur,
	})
	w.busy += at - t.fragStart
}

func (rt *runtime) finishTask(w *worker, t *task) {
	rt.endFragment(t, w.clock)
	t.rec.EndTime = w.clock
	rt.recs.finishTask(t)
	w.clock += rt.cfg.Costs.TaskEnd
	w.overhead += rt.cfg.Costs.TaskEnd
	rt.live--
	if w.clock > rt.maxTime {
		rt.maxTime = w.clock
	}

	t.returned = true
	if p := t.parent; p != nil {
		p.outstanding--
		if p.waiting && p.outstanding == 0 {
			p.waiting = false
			rt.makeResumable(p, w.clock)
		}
		rt.release(p)
	}
	if p := t.notifyOnDone; p != nil {
		rt.makeResumable(p, w.clock)
	}
	// A finished task follows no link again; dropping them leaves no
	// pointer into a task that is later freed.
	t.parent, t.notifyOnDone = nil, nil
	rt.release(t)
}

func (rt *runtime) makeResumable(p *task, at sim.Time) {
	p.resumable = true
	p.readyAt = at
	owner := rt.workers[p.owner]
	owner.resume = append(owner.resume, p)
}

// shouldThrottle applies the flavour's internal cutoff at spawn time.
func (rt *runtime) shouldThrottle(w *worker) bool {
	switch rt.cfg.Flavor {
	case FlavorGCC:
		return rt.queued > 64*rt.cfg.Cores
	case FlavorICC:
		return w.deque.Len() > rt.cfg.ThrottleLimit
	default:
		return false
	}
}

func (rt *runtime) finalize() {
	rt.trace.Start = 0
	rt.trace.End = rt.maxTime
	for _, w := range rt.workers {
		rt.trace.Workers = append(rt.trace.Workers, profile.WorkerStat{
			Busy: w.busy, Overhead: w.overhead,
		})
	}
}
