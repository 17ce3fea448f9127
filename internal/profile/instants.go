package profile

import (
	"cmp"
	"slices"
)

// SchedulerWorkStealing is the Trace.Scheduler name of the simulated
// work-stealing scheduler, the only one whose tasks change worker by
// stealing.
const SchedulerWorkStealing = "work-stealing"

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
	nb := tr.Numbering()
	stealing := tr.Scheduler == SchedulerWorkStealing
	var out []SchedInstant
	for i, t := range tr.Tasks {
		n := int32(i)
		if stealing && !t.Inlined && len(t.Fragments) > 0 && t.Fragments[0].Core != t.CreatedBy {
			out = append(out, SchedInstant{Kind: SchedSteal, At: t.StartTime,
				Worker: t.Fragments[0].Core, Victim: t.CreatedBy, Grain: n})
		}
		row := nb.BoundOff[i]
		for bi := range t.Boundaries {
			b := &t.Boundaries[bi]
			var resumes bool
			switch b.Kind {
			case BoundaryJoin:
				if resumes = b.Suspended > 0; resumes {
					out = append(out, SchedInstant{Kind: SchedPark, At: b.At,
						Worker: t.Fragments[bi].Core, Victim: -1, Grain: n})
				}
			case BoundaryFork:
				c := nb.Child[row+int32(bi)]
				resumes = c >= 0 && int(c) < len(tr.Tasks) && tr.Tasks[c].Inlined
			}
			if resumes && bi+1 < len(t.Fragments) {
				f := &t.Fragments[bi+1]
				out = append(out, SchedInstant{Kind: SchedResume, At: f.Start,
					Worker: f.Core, Victim: -1, Grain: n})
			}
		}
	}
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
