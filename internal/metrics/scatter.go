package metrics

import (
	"sort"

	"graingraph/internal/runpool"
)

// scatterSetGrain is the fixed number of sibling sets per chunk: sets are
// independent, so they shard across the pool in chunks whose boundaries
// depend only on the set count.
const scatterSetGrain = 32

// scatter assigns each grain the median pairwise core distance of its
// sibling set (paper §3.2). Sets larger than opts.ScatterSample are
// deterministically subsampled (every k-th sibling) to bound the quadratic
// pairwise computation.
//
// Sibling sets partition the grains, so every set's computation is
// independent and writes disjoint report rows: the sets run data-parallel
// across opts.Pool, ordered by parent grain ID so the chunking is
// deterministic (profile.Trace.SiblingSets), with per-worker scratch
// reusing the core and distance buffers across the sets a worker processes.
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

	// Distances follow the paper's core-identifier convention
	// (machine.Topology.CoreDistance): |core_i - core_j|.
	type scratch struct {
		cores []int
		dists []int
	}
	runpool.ParallelForScratch(opts.Pool, len(off)-1, scatterSetGrain,
		func() *scratch { return &scratch{} },
		func(_, lo, hi int, s *scratch) {
			for si := lo; si < hi; si++ {
				siblings := members[off[si]:off[si+1]]
				if len(siblings) < 2 {
					for _, m := range siblings {
						rep.Scatter[m] = 0
					}
					continue
				}
				s.cores = s.cores[:0]
				for _, m := range siblings {
					if c := tr.GrainCore(rep.Num[m]); c >= 0 {
						s.cores = append(s.cores, c)
					}
				}
				val := int64(ScatterUnknown)
				if len(s.cores) >= 2 {
					var med int
					med, s.dists = medianPairwiseDistanceBuf(
						subsampleCores(s.cores, opts.ScatterSample), s.dists)
					val = int64(med)
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

// subsampleCores bounds the sibling set to at most limit cores by taking
// every step-th element. The stride uses ceiling division: floor division
// would produce step 1 for sets just under 2×limit (e.g. 4095 cores with
// limit 2048), returning the whole set and voiding the quadratic bound the
// cap promises. The result always satisfies len <= limit for limit >= 1.
// The returned slice may alias cores.
func subsampleCores(cores []int, limit int) []int {
	if limit <= 0 || len(cores) <= limit {
		return cores
	}
	step := (len(cores) + limit - 1) / limit
	sampled := cores[:0]
	for i := 0; i < len(cores); i += step {
		sampled = append(sampled, cores[i])
	}
	return sampled
}

// medianPairwiseDistance returns the median |a-b| over all unordered pairs.
// For an even pair count the upper-middle element is taken (index n/2 of the
// sorted distances) — the same convention MedianGrainLength and medianTimes
// use, biasing ties toward reporting scatter rather than hiding it.
func medianPairwiseDistance(cores []int) int {
	med, _ := medianPairwiseDistanceBuf(cores, nil)
	return med
}

// medianPairwiseDistanceBuf is medianPairwiseDistance reusing buf for the
// distance accumulation; it returns the (possibly grown) buffer so callers
// in the scatter kernel amortize the allocation across sibling sets.
func medianPairwiseDistanceBuf(cores []int, buf []int) (int, []int) {
	n := len(cores)
	if n < 2 {
		return 0, buf
	}
	dists := buf[:0]
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := cores[i] - cores[j]
			if d < 0 {
				d = -d
			}
			dists = append(dists, d)
		}
	}
	sort.Ints(dists)
	return dists[len(dists)/2], dists
}
