package metrics

import (
	"slices"

	"graingraph/internal/runpool"
)

// scatterSetGrain is the fixed number of sibling sets per chunk: sets are
// independent, so they shard across the pool in chunks whose boundaries
// depend only on the set count.
const scatterSetGrain = 32

// scatter assigns each grain the median pairwise core distance of its
// sibling set (paper §3.2), computed exactly for every set size.
//
// Sibling sets partition the grains, so every set's computation is
// independent and writes disjoint report rows: the sets run data-parallel
// across opts.Pool, ordered by parent grain ID so the chunking is
// deterministic (profile.Trace.SiblingSets), and each chunk reuses one core
// buffer across its sets.
//
// Grains whose executing core was not recorded (Core < 0) cannot
// participate in the distance computation and receive ScatterUnknown, as
// does every member of a sibling set with fewer than two recorded cores —
// "we could not measure" must stay distinguishable from "perfectly packed"
// (scatter 0). Only children keep scatter 0: a grain with no siblings is
// trivially unscattered.
func scatter(rep *Report, opts Options) {
	// A set's members are report rows.
	tr := rep.Trace
	off, members := tr.SiblingSets(rep.Num)

	// Distances follow the paper ("by subtracting core identifiers in some
	// topologies"): |core_i - core_j|, so "farther than one socket" is the
	// cores-per-socket count.
	runpool.ParallelFor(opts.Pool, len(off)-1, scatterSetGrain, func(_, lo, hi int) {
		var cores []int
		for si := lo; si < hi; si++ {
			siblings := members[off[si]:off[si+1]]
			if len(siblings) < 2 {
				for _, m := range siblings {
					rep.Scatter[m] = 0
				}
				continue
			}
			cores = cores[:0]
			for _, m := range siblings {
				if c := tr.GrainCore(rep.Num[m]); c >= 0 {
					cores = append(cores, c)
				}
			}
			val := int64(ScatterUnknown)
			if len(cores) >= 2 {
				val = int64(medianPairwiseDistance(cores))
			}
			for _, m := range siblings {
				if tr.GrainCore(rep.Num[m]) < 0 {
					rep.Scatter[m] = ScatterUnknown
					continue
				}
				rep.Scatter[m] = val
			}
		}
	})
}

// medianPairwiseDistance returns the median |a-b| over all P unordered
// pairs, sorting cores in place. For an even P the upper-middle element is
// taken (index P/2 of the sorted distances) — the same convention
// MedianGrainLength and medianTimes use, biasing ties toward reporting
// scatter rather than hiding it.
//
// The median is found without listing the pairs: it is the smallest
// distance d with more than P/2 pairs at most d apart. A binary search on d
// counts those pairs in one two-pointer pass over the sorted cores per
// step, at most 32 steps for int32 cores, with no per-pair memory.
func medianPairwiseDistance(cores []int) int {
	n := len(cores)
	if n < 2 {
		return 0
	}
	slices.Sort(cores)
	mid := n * (n - 1) / 2 / 2
	lo, hi := 0, cores[n-1]-cores[0]
	for lo < hi {
		d := lo + (hi-lo)/2
		if pairsWithin(cores, d) > mid {
			hi = d
		} else {
			lo = d + 1
		}
	}
	return lo
}

// pairsWithin counts the pairs of sorted cores at most d apart.
func pairsWithin(sorted []int, d int) int {
	count, i := 0, 0
	for j, c := range sorted {
		for c-sorted[i] > d {
			i++
		}
		count += j - i
	}
	return count
}
