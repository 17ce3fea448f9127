package query

import "graingraph/internal/runpool"

// exprChunk is the fixed chunk size for the vectorized expression kernels.
// Chunk boundaries depend only on the row count — never the worker count —
// so evaluation is byte-identical at every parallelism level.
const exprChunk = 4096

// EvalBool evaluates e as a row predicate over t, filling out (which must
// be NumRows long) across the pool. A nil pool is the strict serial
// schedule; results are identical either way.
func (e *Expr) EvalBool(t *Table, pool *runpool.Runner, out []bool) error {
	isBool, _, err := e.root.check(t)
	if err != nil {
		return err
	}
	if !isBool {
		return errf(e.src, "expression is not a predicate (use a comparison)")
	}
	runpool.ParallelFor(pool, t.rows, exprChunk, func(_, lo, hi int) {
		e.root.evalBool(t, lo, hi, out[lo:hi])
	})
	return nil
}

// FilterRows returns the row indices of t satisfying e, in ascending row
// order: the predicate evaluates in fixed chunks across the pool, and the
// per-chunk matches assemble in chunk order, so the selection is identical
// at every worker count.
func FilterRows(t *Table, e *Expr, pool *runpool.Runner) ([]int32, error) {
	match := make([]bool, t.rows)
	if err := e.EvalBool(t, pool, match); err != nil {
		return nil, err
	}
	chunks := runpool.Chunks(t.rows, exprChunk)
	counts := make([]int, chunks)
	runpool.ParallelFor(pool, t.rows, exprChunk, func(c, lo, hi int) {
		n := 0
		for i := lo; i < hi; i++ {
			if match[i] {
				n++
			}
		}
		counts[c] = n
	})
	offsets := make([]int, chunks+1)
	for c, n := range counts {
		offsets[c+1] = offsets[c] + n
	}
	idx := make([]int32, offsets[chunks])
	runpool.ParallelFor(pool, t.rows, exprChunk, func(c, lo, hi int) {
		at := offsets[c]
		for i := lo; i < hi; i++ {
			if match[i] {
				idx[at] = int32(i)
				at++
			}
		}
	})
	return idx, nil
}
