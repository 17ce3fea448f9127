package rts

import "graingraph/internal/profile"

// records is one run's storage for what its trace keeps. Task, chunk and
// book-keeping records are carved from chunked slabs, and a finished task's
// fragments, boundaries and joined lists are copied into arenas at exact
// length, so a run allocates what its trace keeps and little besides. While
// a task is live its record's slices grow in scratch that the runtime
// recycles when the task ends.
type records struct {
	tasks     []profile.TaskRecord
	chunks    []profile.ChunkRecord
	bookkeeps []profile.BookkeepRecord
	frags     []profile.Fragment
	bounds    []profile.Boundary
	joins     []int32

	freeFrags  freeList[profile.Fragment]
	freeBounds freeList[profile.Boundary]
	freeJoins  freeList[int32]
}

// store puts record v into slab *s and returns its address.
func store[T any](s *[]T, v T) *T {
	p := &profile.Carve(s, 1)[0]
	*p = v
	return p
}

// keep copies x into arena *s at exact length; an empty x stays nil.
func keep[T any](s *[]T, x []T) []T {
	if len(x) == 0 {
		return nil
	}
	out := profile.Carve(s, len(x))
	copy(out, x)
	return out
}

// freeList recycles emptied scratch slices between a run's tasks.
type freeList[T any] [][]T

// take returns an empty slice, reusing a recycled one's storage if any.
func (f *freeList[T]) take() []T {
	n := len(*f)
	if n == 0 {
		return nil
	}
	x := (*f)[n-1]
	*f = (*f)[:n-1]
	return x
}

// put recycles x's storage; x must not be used afterwards.
func (f *freeList[T]) put(x []T) {
	if cap(x) > 0 {
		*f = append(*f, x[:0])
	}
}

// startTask hands a task that is about to run scratch to grow its
// record's fragments and boundaries and its pending joins in.
func (r *records) startTask(t *task) {
	t.rec.Fragments = r.freeFrags.take()
	t.rec.Boundaries = r.freeBounds.take()
	t.pendingJoin = r.freeJoins.take()
}

// finishTask moves a finished task's fragments and boundaries from scratch
// into the arenas, where its record keeps them, and recycles the scratch.
func (r *records) finishTask(t *task) {
	rec := t.rec
	frags, bounds := rec.Fragments, rec.Boundaries
	rec.Fragments = keep(&r.frags, frags)
	rec.Boundaries = keep(&r.bounds, bounds)
	r.freeFrags.put(frags)
	r.freeBounds.put(bounds)
	r.freeJoins.put(t.pendingJoin)
	t.pendingJoin = nil
}

// join takes the children t spawned since its last join as a kept list,
// leaving t's pending list empty for the next ones.
func (r *records) join(t *task) []int32 {
	joined := keep(&r.joins, t.pendingJoin)
	t.pendingJoin = t.pendingJoin[:0]
	return joined
}
