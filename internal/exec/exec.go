// Package exec is a native work-stealing task executor: the same tasking
// surface as the simulated runtime (Spawn/TaskWait with tied help-first
// joins, Chase-Lev deques per worker), but running real Go code on real
// goroutines and profiling with wall-clock time.
//
// It produces the same profile.Trace the simulator does, so grain graphs,
// metrics, and exports work unchanged — demonstrating the paper's claim
// that "the grain graph visualization works irrespective of the profiling
// method". Counters that need hardware support (cache misses, stalls) stay
// zero; time-based metrics (parallel benefit, load balance, instantaneous
// parallelism, critical path, scatter over workers) are fully populated,
// and work deviation works by re-running with Workers=1.
package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"graingraph/internal/profile"
	"graingraph/internal/sched"
)

// Ctx is the native tasking API. It is intentionally the spawn/wait subset
// of the simulator's rts.Ctx: native code does real work instead of
// charging simulated cycles.
type Ctx interface {
	// Spawn creates a child task running body.
	Spawn(loc profile.SrcLoc, body func(Ctx))
	// TaskWait blocks until all children spawned so far finish; the worker
	// executes other tasks while waiting (help-first join).
	TaskWait()
	// Worker returns the executing worker's ID.
	Worker() int
	// Depth returns the task's spawn-tree depth.
	Depth() int
}

// Config configures a native run.
type Config struct {
	Program string
	Workers int // defaults to GOMAXPROCS
}

// task is a native task instance.
type task struct {
	rec         *profile.TaskRecord
	num         int32 // grain number: the record's index in the trace
	body        func(Ctx)
	parent      *task
	outstanding atomic.Int64
}

// ctx is the per-execution context handed to a task body. It lives on the
// executing goroutine's stack frame; all mutation is single-goroutine.
type ctx struct {
	p           *pool
	w           *worker
	t           *task
	spawnSeq    int
	pendingJoin []int32
	fragStart   uint64
}

// worker is one executor thread.
type worker struct {
	id    int
	deque *sched.ChaseLev
	rng   uint64
	busy  atomic.Uint64   // accumulated busy nanos
	ids   profile.IDArena // the IDs of the tasks spawned on this worker
}

// pool is the executor.
type pool struct {
	cfg      Config
	start    time.Time
	workers  []*worker
	mu       sync.Mutex // guards records
	records  []*profile.TaskRecord
	live     atomic.Int64
	done     chan struct{}
	doneOnce sync.Once
}

func (p *pool) now() uint64 { return uint64(time.Since(p.start)) }

// Run executes program on a native work-stealing pool and returns its
// profiled trace.
func Run(cfg Config, program func(Ctx)) *profile.Trace {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Program == "" {
		cfg.Program = "native"
	}
	p := &pool{cfg: cfg, start: time.Now(), done: make(chan struct{})}
	for i := 0; i < cfg.Workers; i++ {
		p.workers = append(p.workers, &worker{
			id:    i,
			deque: sched.NewChaseLev(),
			rng:   uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
		})
	}

	root := &task{
		rec: &profile.TaskRecord{ID: profile.RootID, Parent: -1, Loc: profile.Loc(cfg.Program+".go", 1, "main")},
	}
	root.body = func(c Ctx) {
		program(c)
		c.TaskWait()
	}
	root.num = p.addRecord(root.rec)
	p.live.Store(1)

	var wg sync.WaitGroup
	for _, w := range p.workers[1:] {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.workerLoop(w)
		}()
	}
	// Worker 0 runs the root, then joins the loop until everything ends.
	p.execute(p.workers[0], root)
	p.workerLoop(p.workers[0])
	wg.Wait()

	tr := &profile.Trace{
		Program:   cfg.Program,
		Cores:     cfg.Workers,
		Sockets:   1,
		Scheduler: "work-stealing(native)",
		Flavor:    "native",
		Start:     0,
		End:       p.now(),
	}
	p.mu.Lock()
	tr.Tasks = append(tr.Tasks, p.records...)
	p.mu.Unlock()
	for _, w := range p.workers {
		tr.Workers = append(tr.Workers, profile.WorkerStat{Busy: w.busy.Load()})
	}
	return tr
}

// addRecord appends rec to the trace's records and returns its grain
// number, its index there.
func (p *pool) addRecord(rec *profile.TaskRecord) int32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.records = append(p.records, rec)
	return int32(len(p.records) - 1)
}

// workerLoop pops/steals tasks until the pool drains.
func (p *pool) workerLoop(w *worker) {
	backoff := 0
	for {
		if p.live.Load() == 0 {
			p.doneOnce.Do(func() { close(p.done) })
			return
		}
		if t := p.find(w); t != nil {
			p.execute(w, t)
			backoff = 0
			continue
		}
		select {
		case <-p.done:
			return
		default:
		}
		backoff++
		if backoff > 64 {
			time.Sleep(10 * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}

// find pops the worker's own deque, falling back to stealing.
func (p *pool) find(w *worker) *task {
	if v, ok := w.deque.PopBottom(); ok {
		return v.(*task)
	}
	n := len(p.workers)
	for i := 0; i < 2*n; i++ {
		w.rng = w.rng*6364136223846793005 + 1442695040888963407
		victim := p.workers[(w.rng>>33)%uint64(n)]
		if victim == w {
			continue
		}
		if v, ok := victim.deque.StealTop(); ok {
			return v.(*task)
		}
	}
	return nil
}

// execute runs t to completion on w (nested helps execute inline).
func (p *pool) execute(w *worker, t *task) {
	begin := p.now()
	t.rec.StartTime = begin
	c := &ctx{p: p, w: w, t: t, fragStart: begin}
	t.body(c)
	end := p.now()
	c.closeFragment(end)
	t.rec.EndTime = end
	w.busy.Add(t.rec.ExecTime())
	if t.parent != nil {
		t.parent.outstanding.Add(-1)
	}
	p.live.Add(-1)
}

// closeFragment records the current fragment ending at ts.
func (c *ctx) closeFragment(ts uint64) {
	c.t.rec.Fragments = append(c.t.rec.Fragments, profile.Fragment{
		Start: c.fragStart, End: ts, Core: c.w.id,
	})
	c.fragStart = ts
}

// Spawn implements Ctx.
func (c *ctx) Spawn(loc profile.SrcLoc, body func(Ctx)) {
	at := c.p.now()
	c.closeFragment(at)

	child := &task{
		rec: &profile.TaskRecord{
			ID: c.w.ids.Child(c.t.rec.ID, c.spawnSeq), Parent: c.t.num, Loc: loc,
			Depth: c.t.rec.Depth + 1, CreatedBy: int32(c.w.id),
			CreateTime: at,
		},
		body:   body,
		parent: c.t,
	}
	c.t.outstanding.Add(1)
	c.p.live.Add(1)
	child.num = c.p.addRecord(child.rec)
	c.spawnSeq++
	c.pendingJoin = append(c.pendingJoin, child.num)
	c.t.rec.Boundaries = append(c.t.rec.Boundaries, profile.Boundary{
		Kind: profile.BoundaryFork, At: at, Child: child.num,
	})
	created := c.p.now()
	// Finish all writes to the child's record before publishing it: a thief
	// may start executing the instant it lands in the deque.
	child.rec.CreateCost = created - at
	c.w.deque.PushBottom(child)
	c.fragStart = created
}

// TaskWait implements Ctx: help-first blocking join — the worker executes
// other tasks (typically this task's own children) until the outstanding
// count drains.
func (c *ctx) TaskWait() {
	if len(c.pendingJoin) == 0 && c.t.outstanding.Load() == 0 {
		return
	}
	at := c.p.now()
	c.closeFragment(at)
	joined := c.pendingJoin
	c.pendingJoin = nil

	var helped uint64
	for c.t.outstanding.Load() > 0 {
		if t := c.p.find(c.w); t != nil {
			h0 := c.p.now()
			c.p.execute(c.w, t)
			helped += c.p.now() - h0
			continue
		}
		runtime.Gosched()
	}
	resumed := c.p.now()
	suspended := resumed - at
	wait := suspended - helped
	c.t.rec.Boundaries = append(c.t.rec.Boundaries, profile.Boundary{
		Kind: profile.BoundaryJoin, At: at, Joined: joined,
		Wait: wait, Suspended: suspended,
	})
	c.fragStart = resumed
}

// Worker implements Ctx.
func (c *ctx) Worker() int { return c.w.id }

// Depth implements Ctx.
func (c *ctx) Depth() int { return int(c.t.rec.Depth) }

// ParallelFor is a convenience built on tasks: it splits [lo,hi) into
// roughly chunk-sized tasks and waits for them — the native stand-in for
// the simulator's loop support.
func ParallelFor(c Ctx, loc profile.SrcLoc, lo, hi, chunk int, body func(lo, hi int)) {
	if chunk <= 0 {
		chunk = 1
	}
	for s := lo; s < hi; s += chunk {
		e := s + chunk
		if e > hi {
			e = hi
		}
		s, e := s, e
		c.Spawn(loc, func(Ctx) { body(s, e) })
	}
	c.TaskWait()
}
