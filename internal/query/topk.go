package query

import (
	"sort"

	"graingraph/internal/runpool"
)

// TopK returns the indices of the k highest-ranked rows of [0, n) under
// above — a strict total order: above(i, j) reports whether row i outranks
// row j — in rank order, best first: O(n log k) comparisons whatever order
// the rows arrive in, and no allocation beyond the result. Because the
// order is total, the result equals sorting all n rows and truncating,
// which is what the callers (highlight top offenders, what-if candidate
// truncation, window child selection, the topk verb) previously each
// implemented by hand.
func TopK(n, k int, above func(i, j int) bool) []int32 {
	return topKRange(0, n, k, above)
}

// topKChunkMin is the row count below which TopKPool stays serial: the
// merge overhead is not worth fanning out a few thousand comparisons.
const topKChunkMin = 8192

// TopKPool is TopK across the pool: fixed row chunks select their local
// top k, and the partial rankings merge in ascending chunk order. The
// total order makes the top-k set and its rank order unique, so the result
// is byte-identical to the serial pass at every worker count.
func TopKPool(pool *runpool.Runner, n, k int, above func(i, j int) bool) []int32 {
	if k <= 0 || n <= 0 {
		return nil
	}
	if n < topKChunkMin {
		return TopK(n, k, above)
	}
	return runpool.ParallelReduce(pool, n, topKChunkMin, nil,
		func(_, lo, hi int, _ []int32) []int32 {
			return topKRange(lo, hi, k, above)
		},
		func(a, b []int32) []int32 {
			return mergeTopK(a, b, k, above)
		})
}

// topKRange is TopK over global rows [lo, hi). The selection is a bounded
// heap whose root is its weakest survivor: a row that does not outrank the
// root costs one comparison, one that does replaces it and sinks in
// O(log k). A heap sort then orders the k survivors in place.
func topKRange(lo, hi, k int, above func(i, j int) bool) []int32 {
	if k <= 0 || hi <= lo {
		return nil
	}
	if k > hi-lo {
		k = hi - lo
	}
	h := make([]int32, 0, k)
	for r := lo; r < hi; r++ {
		if len(h) < k {
			h = append(h, int32(r))
			for c := len(h) - 1; c > 0; {
				p := (c - 1) / 2
				if !above(int(h[p]), int(h[c])) {
					break
				}
				h[p], h[c] = h[c], h[p]
				c = p
			}
		} else if above(r, int(h[0])) {
			h[0] = int32(r)
			siftWeakest(h, above)
		}
	}
	// Move the weakest survivor to the back until the best is left in front.
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftWeakest(h[:end], above)
	}
	return h
}

// siftWeakest sinks h[0] until no entry of the heap h outranks a child of
// its own: the weakest entry is back at the root.
func siftWeakest(h []int32, above func(i, j int) bool) {
	for p := 0; ; {
		c := 2*p + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && above(int(h[c]), int(h[r])) {
			c = r
		}
		if !above(int(h[p]), int(h[c])) {
			return
		}
		h[p], h[c] = h[c], h[p]
		p = c
	}
}

// mergeTopK merges two rank-ordered partial selections, keeping k.
func mergeTopK(a, b []int32, k int, above func(i, j int) bool) []int32 {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	lim := k
	if len(a)+len(b) < lim {
		lim = len(a) + len(b)
	}
	out := make([]int32, 0, lim)
	i, j := 0, 0
	for len(out) < k && (i < len(a) || j < len(b)) {
		switch {
		case i >= len(a):
			out = append(out, b[j])
			j++
		case j >= len(b):
			out = append(out, a[i])
			i++
		case above(int(b[j]), int(a[i])):
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
		}
	}
	return out
}

// SortRows returns the permutation of [0, n) ordered by less, with equal
// rows keeping their original relative order (stable). Sorting is serial —
// a permutation has no chunk-local structure to exploit deterministically —
// so the result is trivially identical at every worker count.
func SortRows(n int, less func(i, j int) bool) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return less(int(idx[a]), int(idx[b])) })
	return idx
}
