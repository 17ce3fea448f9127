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
	if err := e.checkPredicate(t); err != nil {
		return err
	}
	e.evalBool(frame{schema: t}, pool, out)
	return nil
}

// checkPredicate binds e against t's schema and requires a boolean result.
func (e *Expr) checkPredicate(t *Table) error {
	isBool, _, err := e.root.check(t)
	if err != nil {
		return err
	}
	if !isBool {
		return errf(e.src, "expression is not a predicate (use a comparison)")
	}
	return nil
}

// evalBool evaluates the checked predicate e over frame f in fixed chunks.
func (e *Expr) evalBool(f frame, pool *runpool.Runner, out []bool) {
	runpool.ParallelFor(pool, f.rows(), exprChunk, func(_, lo, hi int) {
		e.root.evalBool(f, lo, hi, out[lo:hi])
	})
}

// filterFrame returns the schema rows of f's positions that satisfy e, in
// frame order (a filter after a sort keeps the sorted order): the
// predicate evaluates in fixed chunks across the pool, and the per-chunk
// matches assemble in chunk order, so the selection is identical at every
// worker count.
func filterFrame(f frame, e *Expr, pool *runpool.Runner) ([]int32, error) {
	if err := e.checkPredicate(f.schema); err != nil {
		return nil, err
	}
	rows := f.rows()
	match := make([]bool, rows)
	e.evalBool(f, pool, match)
	chunks := runpool.Chunks(rows, exprChunk)
	counts := make([]int, chunks)
	runpool.ParallelFor(pool, rows, exprChunk, func(c, lo, hi int) {
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
	runpool.ParallelFor(pool, rows, exprChunk, func(c, lo, hi int) {
		at := offsets[c]
		for i := lo; i < hi; i++ {
			if match[i] {
				idx[at] = int32(f.row(i))
				at++
			}
		}
	})
	return idx, nil
}
