package metrics

import (
	"graingraph/internal/core"
	"graingraph/internal/profile"
	"graingraph/internal/runpool"
)

// criticalGrain is the chunk size for the level-synchronous relaxation and
// the final sink scan: big enough that a chunk amortizes its scheduling, and
// fixed so chunk boundaries — and therefore the reduction — are identical at
// every worker count.
const criticalGrain = 2048

// CriticalSpan returns the weight of the heaviest path through g under
// weights (nil: the graph's recorded weight column), marking nothing and
// recovering no path: one NewCPBaseline DP, reading weights in place. An
// all-zero weight graph has no meaningful critical path and reports 0. The
// result is identical at every worker count, including pool == nil.
func CriticalSpan(g *core.Graph, weights []profile.Time, pool *runpool.Runner) profile.Time {
	if weights == nil {
		weights = g.WeightColumn()
	}
	return newCPBaseline(g, weights, pool).span
}

// markCritical marks the baseline's critical path on its graph — nodes and
// the edges between consecutive path nodes — and returns the path. Analyze
// runs it once per report; the edge-marking scan runs across the pool (nil
// runs serially), with identical output.
func markCritical(b *CPBaseline, pool *runpool.Runner) []core.NodeID {
	g := b.g
	path := b.Path()
	for _, n := range path {
		g.SetCritical(n, true)
	}
	// Mark edges between consecutive path nodes. Each edge's flag depends
	// only on that edge's endpoints, so the scan shards freely.
	if len(path) > 1 {
		onPath := make(map[[2]core.NodeID]bool, len(path))
		for i := 1; i < len(path); i++ {
			onPath[[2]core.NodeID{path[i-1], path[i]}] = true
		}
		runpool.ParallelFor(pool, g.NumEdges(), criticalGrain, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				if onPath[[2]core.NodeID{g.EdgeFrom(i), g.EdgeTo(i)}] {
					g.SetEdgeCritical(i, true)
				}
			}
		})
	}
	return path
}
