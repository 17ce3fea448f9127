package profile

import "fmt"

// Validate checks the structural invariants a trace must satisfy before the
// graph builder may consume it: every fragment and chunk interval is
// well-formed (End >= Start), every worker's busy plus overhead time fits
// in the trace span, a task's fragments are ordered and non-overlapping,
// boundary counts match fragment counts, every boundary/chunk refers to a
// loop the trace records, and every core and thread id fits in an int32,
// the width the grain graph and the columnar artifact store them at. Of
// the references between task records, Tasks[0] is the one parentless
// task, every other task's parent is an earlier record, and fork children
// and joined grains are later records, so no analysis tests one again.
// The live runtimes construct traces that hold these by design; the check
// matters for traces read back from disk, where corruption or a buggy
// producer would otherwise surface far away as negative-weight graph nodes
// or builder panics.
//
// It returns the first violation found, or nil for a well-formed trace.
func (tr *Trace) Validate() error {
	if tr.End < tr.Start {
		return fmt.Errorf("profile: trace span [%d,%d) is negative", tr.Start, tr.End)
	}
	if tr.Cores < 0 {
		return fmt.Errorf("profile: negative core count %d", tr.Cores)
	}
	if outsideInt32(tr.Cores) {
		return fmt.Errorf("profile: core count %d is outside int32", tr.Cores)
	}
	// A worker's idle time is the span minus its busy and overhead time,
	// so the two must fit in the span. Compared by subtraction: the sum
	// of two hostile counters can wrap.
	span := tr.Makespan()
	for i, ws := range tr.Workers {
		if ws.Busy > span || ws.Overhead > span-ws.Busy {
			return fmt.Errorf("profile: worker %d busy %d + overhead %d exceeds the trace span %d",
				i, ws.Busy, ws.Overhead, span)
		}
	}
	loops := make(map[LoopID]bool, len(tr.Loops))
	for _, l := range tr.Loops {
		if l.End < l.Start {
			return fmt.Errorf("profile: loop %d span [%d,%d) is negative", l.ID, l.Start, l.End)
		}
		if l.Hi < l.Lo {
			return fmt.Errorf("profile: loop %d iteration space [%d,%d) is negative", l.ID, l.Lo, l.Hi)
		}
		if loops[l.ID] {
			return fmt.Errorf("profile: duplicate loop record %d", l.ID)
		}
		if outsideInt32(l.StartThread) {
			return fmt.Errorf("profile: loop %d start thread %d is outside int32", l.ID, l.StartThread)
		}
		loops[l.ID] = true
	}
	dup := tr.Numbering().duplicateTask()
	for ti, t := range tr.Tasks {
		if t.ID == "" {
			return fmt.Errorf("profile: task with empty grain ID")
		}
		if int32(ti) == dup {
			return fmt.Errorf("profile: duplicate task record %q", t.ID)
		}
		// Spawn order: every producer records a task after the task that
		// spawned it. Requiring it here is what makes Parent chains finite —
		// a self-parent or a Parent cycle cannot satisfy it — so ancestor
		// walks over a validated trace terminate without a depth bound.
		if t.Parent >= int32(ti) || t.Parent < 0 && ti > 0 {
			return fmt.Errorf("profile: task %q is recorded before its parent, task %d (only the first task has none, -1)", t.ID, t.Parent)
		}
		if len(t.Boundaries) > len(t.Fragments) {
			return fmt.Errorf("profile: task %q has %d boundaries for %d fragments",
				t.ID, len(t.Boundaries), len(t.Fragments))
		}
		var prevEnd Time
		for i := range t.Fragments {
			f := &t.Fragments[i]
			if f.End < f.Start {
				return fmt.Errorf("profile: task %q fragment %d runs backwards [%d,%d)",
					t.ID, i, f.Start, f.End)
			}
			if outsideInt32(f.Core) {
				return fmt.Errorf("profile: task %q fragment %d core %d is outside int32", t.ID, i, f.Core)
			}
			if i > 0 && f.Start < prevEnd {
				return fmt.Errorf("profile: task %q fragments %d and %d overlap (%d < %d)",
					t.ID, i-1, i, f.Start, prevEnd)
			}
			prevEnd = f.End
		}
		for i := range t.Boundaries {
			b := &t.Boundaries[i]
			if b.Kind == BoundaryLoop && !loops[b.Loop] {
				return fmt.Errorf("profile: task %q boundary %d references unknown loop %d",
					t.ID, i, b.Loop)
			}
			if b.Kind == BoundaryFork && !tr.after(b.Child, ti) {
				return fmt.Errorf("profile: task %q boundary %d forks task %d, not a later record", t.ID, i, b.Child)
			}
			for _, c := range b.Joined {
				if !tr.after(c, ti) {
					return fmt.Errorf("profile: task %q boundary %d joins task %d, not a later record", t.ID, i, c)
				}
			}
		}
	}
	for i, c := range tr.Chunks {
		if c.End < c.Start {
			return fmt.Errorf("profile: chunk %d runs backwards [%d,%d)", i, c.Start, c.End)
		}
		if c.Bookkeep > c.Start {
			return fmt.Errorf("profile: chunk %d book-keeping %d precedes time zero (start %d)",
				i, c.Bookkeep, c.Start)
		}
		if c.Hi < c.Lo {
			return fmt.Errorf("profile: chunk %d iteration range [%d,%d) is negative", i, c.Lo, c.Hi)
		}
		if !loops[c.Loop] {
			return fmt.Errorf("profile: chunk %d references unknown loop %d", i, c.Loop)
		}
		if outsideInt32(c.Thread) {
			return fmt.Errorf("profile: chunk %d thread %d is outside int32", i, c.Thread)
		}
	}
	for i, bk := range tr.Bookkeeps {
		if !loops[bk.Loop] {
			return fmt.Errorf("profile: book-keeping record %d references unknown loop %d", i, bk.Loop)
		}
		if outsideInt32(bk.Thread) {
			return fmt.Errorf("profile: book-keeping record %d thread %d is outside int32", i, bk.Thread)
		}
	}
	return nil
}

// after reports whether n numbers a task recorded after Tasks[i].
func (tr *Trace) after(n int32, i int) bool { return int(n) > i && int(n) < len(tr.Tasks) }

// outsideInt32 reports whether v would wrap when narrowed to int32.
func outsideInt32(v int) bool { return v != int(int32(v)) }
