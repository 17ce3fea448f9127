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

// CriticalSpanOver is the span-only variant of CriticalPathOverPool for
// callers that discard the path: no predecessor tracking (dropping both the
// 8-bytes-per-node pred array and the tie-break branch in the inner loop)
// and dist is caller-provided scratch of at least NumNodes elements, every
// one of which is overwritten. Distances are pure maxima, so the returned
// span is bit-identical to CriticalPathOverPool's — the what-if engine's
// dense fallback runs ~20 of these back to back against pooled scratch.
func CriticalSpanOver(g *core.Graph, weights []profile.Time, dist []profile.Time, pool *runpool.Runner) profile.Time {
	if g.NumNodes() == 0 {
		return 0
	}
	if weights == nil {
		weights = g.Weights()
	}
	numLevels := g.NumLevels() // forces the level index (and out-CSR)
	g.In(0)                    // force the in-CSR the pull relaxation reads

	for l := 0; l < numLevels; l++ {
		nodes := g.LevelNodes(l)
		runpool.ParallelFor(pool, len(nodes), criticalGrain, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				n := core.NodeID(nodes[i])
				var d profile.Time
				for _, ei := range g.In(n) {
					from := g.EdgeFrom(int(ei))
					if df := dist[from] + weights[from]; df > d {
						d = df
					}
				}
				dist[n] = d
			}
		})
	}

	return runpool.ParallelReduce(pool, g.NumNodes(), criticalGrain,
		profile.Time(0),
		func(_, lo, hi int, acc profile.Time) profile.Time {
			for i := lo; i < hi; i++ {
				if d := dist[i] + weights[i]; d > acc {
					acc = d
				}
			}
			return acc
		},
		func(a, b profile.Time) profile.Time {
			if b > a {
				return b
			}
			return a
		})
}

// CriticalPathOverPool is the data-parallel critical-path DP: a pull-based,
// level-synchronous relaxation over the store's precomputed topological
// levels. Every edge crosses to a strictly higher level, so all nodes of one
// level relax concurrently — each reads only distances settled by earlier
// levels and writes only its own dist/pred slot. Chunk boundaries within a
// level are fixed (see runpool.ParallelFor), and the final sink reduction
// merges per-chunk partials in chunk index order, so the result is
// byte-identical at every worker count, including pool == nil.
//
// Tie-breaking matches the serial push DP this replaces, keeping output
// deterministic regardless of edge insertion order: among sink nodes tied
// for the longest path the lowest NodeID wins, and among equal-length
// predecessor paths the lowest predecessor NodeID wins. (A pull over a
// node's in-edges taking the max finishing distance with lowest-ID ties
// computes exactly what the push relaxation left in dist/pred: the max is
// order-independent, and both rules resolve equal distances — including the
// all-zero case against the implicit initial dist 0 / pred -1 — toward the
// smallest predecessor ID.)
func CriticalPathOverPool(g *core.Graph, weights []profile.Time, pool *runpool.Runner) (profile.Time, []core.NodeID) {
	if g.NumNodes() == 0 {
		return 0, nil
	}
	if weights == nil {
		weights = g.Weights()
	}
	numLevels := g.NumLevels() // forces the level index (and out-CSR)
	g.In(0)                    // force the in-CSR the pull relaxation reads
	dist := make([]profile.Time, g.NumNodes())
	pred := make([]core.NodeID, g.NumNodes())

	for l := 0; l < numLevels; l++ {
		nodes := g.LevelNodes(l)
		runpool.ParallelFor(pool, len(nodes), criticalGrain, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				n := core.NodeID(nodes[i])
				var d profile.Time
				p := core.NodeID(-1)
				for _, ei := range g.In(n) {
					from := g.EdgeFrom(int(ei))
					df := dist[from] + weights[from]
					if df > d || (df == d && (p < 0 || from < p)) {
						d = df
						p = from
					}
				}
				dist[n] = d
				pred[n] = p
			}
		})
	}

	// Sink selection: the heaviest finishing distance, lowest NodeID among
	// ties. Per-chunk winners merge in index order; ranges are ascending, so
	// the left-fold keeps the first (lowest-ID) chunk's winner on ties.
	type sink struct {
		best profile.Time
		end  core.NodeID
	}
	win := runpool.ParallelReduce(pool, g.NumNodes(), criticalGrain,
		sink{0, -1},
		func(_, lo, hi int, acc sink) sink {
			for i := lo; i < hi; i++ {
				n := core.NodeID(i)
				if d := dist[n] + weights[n]; d > acc.best || (d == acc.best && acc.end < 0) {
					acc.best = d
					acc.end = n
				}
			}
			return acc
		},
		func(a, b sink) sink {
			if b.best > a.best || (b.best == a.best && a.end < 0) {
				return b
			}
			return a
		})

	// An all-zero-weight graph has no meaningful critical path: report
	// length 0 with no path rather than an arbitrary single node.
	if win.best == 0 {
		return 0, nil
	}

	// Recover the path in forward order.
	var path []core.NodeID
	for n := win.end; n >= 0; n = pred[n] {
		path = append(path, n)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return win.best, path
}

// CriticalPathPool computes the heaviest path through the grain graph,
// weighting each node by its time contribution (execution time for grains,
// creation/synchronization overhead for fork/join nodes, delivery cost for
// book-keeping nodes). It marks the nodes and edges on the path via their
// Critical flags and returns the path length and node sequence. When every
// node weight is zero no path exists and nothing is marked. The DP and the
// edge-marking scan run across the pool (nil runs serially), with
// identical output.
func CriticalPathPool(g *core.Graph, pool *runpool.Runner) (profile.Time, []core.NodeID) {
	best, path := CriticalPathOverPool(g, nil, pool)
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
	return best, path
}
