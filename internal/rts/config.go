// Package rts is the simulated OpenMP-like tasking runtime the grain-graph
// profiler observes. It plays the role of the paper's MIR runtime (plus the
// GCC- and ICC-flavoured comparators): tied tasks with taskwait
// synchronization, parallel for-loops with static/dynamic/guided chunk
// schedules, a work-stealing scheduler over per-worker deques, and a
// central-queue scheduler baseline.
//
// Execution happens in virtual time on a simulated NUMA machine
// (internal/machine + internal/cache): task bodies are real Go closures that
// charge cycles explicitly via Compute and memory accesses via Load/Store.
// This makes runs on 1..48 cores deterministic and machine-independent,
// which is what lets us reproduce the paper's experiments without the
// authors' 48-core Opteron testbed.
package rts

import (
	"fmt"

	"graingraph/internal/cache"
	"graingraph/internal/machine"
	"graingraph/internal/profile"
)

// Flavor selects the runtime-system policy personality, mirroring the three
// OpenMP runtimes the paper compares.
type Flavor int

const (
	// FlavorMIR is plain work-stealing with no internal task throttling,
	// like the paper's MIR runtime.
	FlavorMIR Flavor = iota
	// FlavorGCC throttles task creation once the total number of queued
	// tasks exceeds 64× the thread count, executing further spawns
	// undeferred — GCC libgomp's policy the paper cites.
	FlavorGCC
	// FlavorICC inlines spawns whenever the spawning worker's own queue is
	// longer than an internal limit — the "queue-size based internal cutoff"
	// the paper found in the ICC runtime sources, which lets ICC survive
	// broken program-level cutoffs (376.kdtree, FFT).
	FlavorICC
)

// String returns the flavour name used in traces and reports.
func (f Flavor) String() string {
	switch f {
	case FlavorMIR:
		return "MIR"
	case FlavorGCC:
		return "GCC"
	case FlavorICC:
		return "ICC"
	default:
		return fmt.Sprintf("Flavor(%d)", int(f))
	}
}

// SchedulerKind selects the task scheduler.
type SchedulerKind int

const (
	// WorkStealing gives each worker a Chase-Lev style deque; idle workers
	// steal the oldest task from a victim.
	WorkStealing SchedulerKind = iota
	// CentralQueueSched funnels every task through one shared FIFO queue —
	// the baseline whose sibling scatter Figure 11d of the paper shows.
	CentralQueueSched
)

// String returns the scheduler name used in traces and reports.
func (s SchedulerKind) String() string {
	if s == CentralQueueSched {
		return profile.SchedulerCentralQueue
	}
	return profile.SchedulerWorkStealing
}

// CostModel sets the runtime overheads in cycles. The defaults are sized so
// that grains below roughly a thousand cycles have parallel benefit < 1,
// matching the paper's narrative that too-fine grains don't pay for their
// parallelization.
type CostModel struct {
	Spawn           uint64 // create + enqueue a task (paid by the parent)
	SpawnInlined    uint64 // create an undeferred (throttled) task: no enqueue
	Steal           uint64 // successful steal (thief)
	Pop             uint64 // owner dequeue
	Resume          uint64 // resume a suspended task
	TaskEnd         uint64 // task teardown
	JoinPerChild    uint64 // per-child bookkeeping at a taskwait
	BookkeepStatic  uint64 // static-schedule chunk delivery
	BookkeepDynamic uint64 // dynamic/guided chunk delivery (excl. lock)
	CounterLock     uint64 // serialization window on the shared loop counter
	QueueOp         uint64 // central queue enqueue/dequeue
}

// DefaultCosts returns the standard cost model.
func DefaultCosts() CostModel {
	return CostModel{
		Spawn:           800,
		SpawnInlined:    200,
		Steal:           2000,
		Pop:             150,
		Resume:          300,
		TaskEnd:         100,
		JoinPerChild:    200,
		BookkeepStatic:  100,
		BookkeepDynamic: 250,
		CounterLock:     150,
		QueueOp:         300,
	}
}

// Config describes one simulated run.
type Config struct {
	Program   string // label recorded in the trace; the root task's location is <Program>.go:1(main)
	Cores     int    // workers; worker i is pinned to core i of the 48-core machine.Default48
	Cache     cache.Config
	Policy    machine.Policy
	Scheduler SchedulerKind
	Flavor    Flavor
	// ThrottleLimit is the per-queue length limit for FlavorICC. The
	// default (24) is scaled to this simulator's laptop-sized inputs the
	// same way ICC's 256-ish limit relates to the paper's full-size runs:
	// deep enough that healthy programs never hit it, shallow enough that a
	// task explosion does.
	ThrottleLimit int
	Seed          uint64
	Costs         CostModel
}

// withDefaults validates and fills zero fields for a run on topo.
func (c Config) withDefaults(topo *machine.Topology) Config {
	if c.Cores <= 0 {
		c.Cores = topo.NumCores()
	}
	if c.Cores > topo.NumCores() {
		panic(fmt.Sprintf("rts: %d cores requested but topology has %d",
			c.Cores, topo.NumCores()))
	}
	if c.Cache.LineSize == 0 {
		c.Cache = cache.DefaultConfig()
	}
	if c.ThrottleLimit == 0 {
		c.ThrottleLimit = 24
	}
	if c.Costs == (CostModel{}) {
		c.Costs = DefaultCosts()
	}
	if c.Program == "" {
		c.Program = "program"
	}
	return c
}

// ForOpt configures a parallel for-loop.
type ForOpt struct {
	Schedule profile.ScheduleKind
	// Chunk is the chunk size; 0 means the schedule default (static: evenly
	// split across workers; dynamic: 1; guided: minimum chunk 1).
	Chunk int
	// NumThreads restricts the loop to the first N workers (the paper's
	// num_threads(7) Freqmine optimization); 0 means all.
	NumThreads int
}

// Ctx is the tasking API task bodies program against — the moral equivalent
// of the OpenMP pragmas the paper's benchmarks use, plus explicit cost
// charging (the simulated stand-in for actually burning cycles).
type Ctx interface {
	// Spawn creates a child task (omp task). The child's grain ID is
	// path-enumerated from the parent, so IDs are schedule-independent.
	Spawn(loc profile.SrcLoc, body func(Ctx))
	// TaskWait blocks until all children spawned so far have finished
	// (omp taskwait). The worker helps execute other tasks meanwhile.
	TaskWait()
	// For runs a parallel for-loop over [lo,hi) (omp parallel for). Only the
	// master/root context may call it; the profiler, like the paper's, does
	// not support nested parallelism. The body receives chunk bounds.
	For(loc profile.SrcLoc, lo, hi int, opt ForOpt, body func(c Ctx, lo, hi int))
	// Compute charges pure computation cycles.
	Compute(cycles uint64)
	// Load / Store charge a sequential memory scan of length bytes at off
	// within region r through the simulated cache hierarchy.
	Load(r *machine.Region, off, length int64)
	Store(r *machine.Region, off, length int64)
	// LoadStrided charges count reads with a byte stride.
	LoadStrided(r *machine.Region, off int64, count int, stride int64)
	// Alloc reserves a named region in simulated memory.
	Alloc(name string, size int64) *machine.Region
}
