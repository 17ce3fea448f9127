package profile

import (
	"cmp"
	"slices"
)

// Trace.Scheduler names of the simulated runtime's two schedulers. Only
// work-stealing tasks change worker by stealing, and only these two names
// have deque or central-queue operations derived for them (see
// WorkerCounts); a trace naming any other scheduler (only an artifact
// can) has neither.
const (
	SchedulerWorkStealing = "work-stealing"
	SchedulerCentralQueue = "central-queue"
)

// SchedKind is the kind of a scheduler instant.
type SchedKind uint8

const (
	// SchedSteal: Worker took the task from Victim's deque.
	SchedSteal SchedKind = iota
	// SchedPark: the task suspended at a taskwait.
	SchedPark
	// SchedResume: a suspended task resumed on its owner worker.
	SchedResume
)

// String names the instant kind.
func (k SchedKind) String() string {
	switch k {
	case SchedSteal:
		return "steal"
	case SchedPark:
		return "park"
	case SchedResume:
		return "resume"
	default:
		return "unknown"
	}
}

// SchedInstant is one scheduler event of a run.
type SchedInstant struct {
	Kind   SchedKind
	At     Time
	Worker int   // the thief (steal) or the task's owner (park, resume)
	Victim int   // SchedSteal: the worker the task was taken from; -1 otherwise
	Grain  int32 // the task's grain number (see Numbering)
}

// SchedInstants derives the run's steal, park and resume instants from the
// task records, ordered by time, worker, kind and grain:
//
//   - Steal: a non-inlined task of a work-stealing run whose first fragment
//     ran on another worker than the one that created it. A task is only
//     ever pushed onto its creator's deque, so the creator is the victim,
//     and a task starts the moment it is acquired, so the steal happens at
//     StartTime.
//   - Park: a join boundary with a nonzero Suspended time, at the boundary
//     on the worker that ran the fragment before it.
//   - Resume: the fragment after a parked join, or after a fork whose child
//     was inlined (the parent waits for an undeferred child the same way),
//     at that fragment's start on its core.
//
// The one case the records cannot decide is a join that suspended for zero
// time, which only a zero Resume cost in the runtime's cost model allows:
// it reads as a join that never suspended, so its park and resume are
// missing. With a nonzero Resume cost every suspension lasts at least that
// long, and the derivation is exact.
func (tr *Trace) SchedInstants() []SchedInstant {
	var out []SchedInstant
	tr.eachInstant(func(in SchedInstant) { out = append(out, in) })
	slices.SortFunc(out, func(a, b SchedInstant) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Worker, b.Worker); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
			return c
		}
		return cmp.Compare(a.Grain, b.Grain)
	})
	return out
}

// eachInstant calls fn for every scheduler instant of the run in record
// order, by the rules SchedInstants documents.
func (tr *Trace) eachInstant(fn func(SchedInstant)) {
	stealing := tr.Scheduler == SchedulerWorkStealing
	for i, t := range tr.Tasks {
		n := int32(i)
		if stealing && !t.Inlined && len(t.Fragments) > 0 && t.Fragments[0].Core != int(t.CreatedBy) {
			fn(SchedInstant{Kind: SchedSteal, At: t.StartTime,
				Worker: t.Fragments[0].Core, Victim: int(t.CreatedBy), Grain: n})
		}
		for bi := range t.Boundaries {
			b := &t.Boundaries[bi]
			var resumes bool
			switch b.Kind {
			case BoundaryJoin:
				if resumes = b.Suspended > 0; resumes {
					fn(SchedInstant{Kind: SchedPark, At: b.At,
						Worker: t.Fragments[bi].Core, Victim: -1, Grain: n})
				}
			case BoundaryFork:
				resumes = tr.Tasks[b.Child].Inlined
			}
			if resumes && bi+1 < len(t.Fragments) {
				f := &t.Fragments[bi+1]
				fn(SchedInstant{Kind: SchedResume, At: f.Start,
					Worker: f.Core, Victim: -1, Grain: n})
			}
		}
	}
}

// WorkerCounts is one worker's scheduler event counts.
type WorkerCounts struct {
	Spawns   uint64 // tasks this worker created
	Inlined  uint64 // of which it executed undeferred (throttled)
	Pushes   uint64 // local deque pushes
	Pops     uint64 // local deque pops
	Steals   uint64 // tasks it took from another worker's deque
	QueueOps uint64 // central-queue enqueues and dequeues
	Parks    uint64 // taskwait suspensions of tasks it owned
	Resumes  uint64 // task resumptions it executed
}

// WorkerCounts derives each worker's scheduler event counts from the task
// records, one entry per Workers entry:
//
//   - Spawns and Inlined: every task with a parent counts for the worker
//     that created it (CreatedBy); an inlined task counts for both.
//   - Work-stealing runs: a non-inlined task is pushed onto its creator's
//     deque, and popped there if its first fragment ran on the creator
//     (otherwise it was stolen).
//   - Central-queue runs: a non-inlined task is one queue operation for
//     its creator (the enqueue) and one for the worker of its first
//     fragment (the dequeue).
//   - Steals, parks and resumes: the run's SchedInstants, by Worker.
//
// A task without fragments was never acquired, so it counts only as a
// spawn and a push or enqueue. A worker id outside [0, len(Workers)) —
// only a hostile artifact has one, since Validate does not bound
// Fragment.Core, CreatedBy or Chunk.Thread — names no worker, and its
// events count for nobody. The table is sized by Workers alone.
func (tr *Trace) WorkerCounts() []WorkerCounts {
	out := make([]WorkerCounts, len(tr.Workers))
	var nobody WorkerCounts
	at := func(w int) *WorkerCounts {
		if w >= 0 && w < len(out) {
			return &out[w]
		}
		return &nobody
	}
	stealing := tr.Scheduler == SchedulerWorkStealing
	central := tr.Scheduler == SchedulerCentralQueue
	for _, t := range tr.Tasks {
		if t.Parent < 0 {
			continue // the root is not spawned
		}
		c := at(int(t.CreatedBy))
		c.Spawns++
		if t.Inlined {
			c.Inlined++
			continue
		}
		acquired := len(t.Fragments) > 0
		switch {
		case stealing:
			c.Pushes++
			if acquired && t.Fragments[0].Core == int(t.CreatedBy) {
				c.Pops++
			}
		case central:
			c.QueueOps++
			if acquired {
				at(t.Fragments[0].Core).QueueOps++
			}
		}
	}
	tr.eachInstant(func(in SchedInstant) {
		c := at(in.Worker)
		switch in.Kind {
		case SchedSteal:
			c.Steals++
		case SchedPark:
			c.Parks++
		case SchedResume:
			c.Resumes++
		}
	})
	return out
}
