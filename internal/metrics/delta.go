package metrics

import (
	"slices"
	"sync"

	"graingraph/internal/core"
	"graingraph/internal/profile"
	"graingraph/internal/runpool"
)

// topFinishK bounds the precomputed "heaviest finishing distances" list a
// CPBaseline keeps. After a sparse evaluation the new span is the max over
// the changed nodes' finishes and the best *unchanged* baseline finish; as
// long as some unchanged node appears among the topFinishK heaviest, the
// final reduction is a short list walk. A delta whose cone swallows the
// whole list declines (ok=false) — an effective-finish re-scan through the
// overlay maps costs more than the exact full DP the caller falls back to.
const topFinishK = 1024

// CPBaseline is the settled state of one full critical-path DP run: the
// distance column, the weight vector it was computed under, and where the
// heaviest path ends. The critical path itself is recovered from it
// (Path), and CriticalPathDelta evaluates sparse weight edits against it
// without re-walking the graph. Analyze builds one per report, which the
// what-if engine adopts rather than running the DP again. The baseline is
// immutable after construction apart from its lazily built top-finish
// index (every evaluation keeps its changes in private overlays), so one
// baseline safely serves concurrent evaluations — the what-if engine's
// EvalAll fans candidates across the pool against a single shared
// CPBaseline.
type CPBaseline struct {
	g       *core.Graph
	weights []profile.Time // baseline weight vector: read, never written
	dist    []profile.Time // dist[n]: heaviest path weight strictly before n
	span    profile.Time   // max finish = the baseline critical-path length
	sink    core.NodeID    // heaviest finish, lowest NodeID among ties; -1 if none

	// Top finishes in descending order (ties broken toward lower NodeID,
	// matching the sink scan); finish values kept alongside so the final
	// reduction needs no recomputation. Built on the first delta
	// evaluation: an analysis that never asks a what-if question never
	// pays for it.
	topOnce   sync.Once
	topNodes  []core.NodeID
	topFinish []profile.Time
}

// NewCPBaseline runs the level-synchronous critical-path DP once over
// weights and retains its state. With nil weights it reads the graph's
// recorded weight column in place; a caller's non-nil slice is copied, so
// the caller may reuse it. The graph's adjacency and level indexes are
// forced, so the returned baseline and the graph are safe for concurrent
// read-only use afterwards.
func NewCPBaseline(g *core.Graph, weights []profile.Time, pool *runpool.Runner) *CPBaseline {
	if weights == nil {
		weights = g.WeightColumn()
	} else {
		weights = append([]profile.Time(nil), weights...)
	}
	return newCPBaseline(g, weights, pool)
}

// newCPBaseline is NewCPBaseline adopting weights without a copy.
//
// The DP is a pull-based, level-synchronous relaxation over the store's
// precomputed topological levels. Every edge crosses to a strictly higher
// level, so all nodes of one level relax concurrently — each reads only
// distances settled by earlier levels and writes only its own slot. Chunk
// boundaries within a level are fixed (see runpool.ParallelFor), and the
// sink reduction merges per-chunk partials in chunk index order, so the
// result is byte-identical at every worker count, including pool == nil.
func newCPBaseline(g *core.Graph, weights []profile.Time, pool *runpool.Runner) *CPBaseline {
	b := &CPBaseline{g: g, weights: weights, sink: -1}
	n := g.NumNodes()
	if n == 0 {
		return b
	}
	numLevels := g.NumLevels() // forces the level index (and out-CSR)
	g.In(0)                    // force the in-CSR the pull relaxation reads
	g.Level(0)
	b.dist = make([]profile.Time, n)
	for l := 0; l < numLevels; l++ {
		nodes := g.LevelNodes(l)
		runpool.ParallelFor(pool, len(nodes), criticalGrain, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				nd := core.NodeID(nodes[i])
				var d profile.Time
				for _, ei := range g.In(nd) {
					from := g.EdgeFrom(int(ei))
					if df := b.dist[from] + weights[from]; df > d {
						d = df
					}
				}
				b.dist[nd] = d
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
	win := runpool.ParallelReduce(pool, n, criticalGrain,
		sink{0, -1},
		func(_, lo, hi int, acc sink) sink {
			for i := lo; i < hi; i++ {
				nd := core.NodeID(i)
				if d := b.dist[nd] + weights[nd]; d > acc.best || (d == acc.best && acc.end < 0) {
					acc.best = d
					acc.end = nd
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
	b.span, b.sink = win.best, win.end
	return b
}

// Path returns the critical path in forward order, nil when the span is 0
// (an all-zero-weight or empty graph has no meaningful critical path). It
// walks back from the sink, each step taking the lowest-ID in-neighbour
// whose finish equals the node's distance: the predecessor a DP recording
// lowest-ID-on-ties predecessors would have stored, so no predecessor
// column needs to be kept.
func (b *CPBaseline) Path() []core.NodeID {
	if b.span == 0 {
		return nil
	}
	g := b.g
	var path []core.NodeID
	for n := b.sink; n >= 0; {
		path = append(path, n)
		p := core.NodeID(-1)
		for _, ei := range g.In(n) {
			from := g.EdgeFrom(int(ei))
			if b.dist[from]+b.weights[from] == b.dist[n] && (p < 0 || from < p) {
				p = from
			}
		}
		n = p
	}
	slices.Reverse(path)
	return path
}

// top builds the topFinishK heaviest finishes with a bounded insertion
// pass: descending finish, lowest NodeID among ties.
func (b *CPBaseline) top() {
	n := len(b.dist)
	k := min(topFinishK, n)
	b.topNodes = make([]core.NodeID, 0, k)
	b.topFinish = make([]profile.Time, 0, k)
	for i := 0; i < n; i++ {
		f := b.dist[i] + b.weights[i]
		if len(b.topFinish) == k && f <= b.topFinish[k-1] {
			continue
		}
		// Insertion position: after every entry with a strictly larger
		// finish or an equal finish and smaller ID (IDs arrive ascending, so
		// equal finishes need no swap).
		pos := len(b.topFinish)
		for pos > 0 && b.topFinish[pos-1] < f {
			pos--
		}
		if len(b.topFinish) < k {
			b.topNodes = append(b.topNodes, 0)
			b.topFinish = append(b.topFinish, 0)
		}
		copy(b.topNodes[pos+1:], b.topNodes[pos:])
		copy(b.topFinish[pos+1:], b.topFinish[pos:])
		b.topNodes[pos] = core.NodeID(i)
		b.topFinish[pos] = f
	}
}

// Span returns the baseline critical-path length (0 for an all-zero or
// empty graph, exactly as CriticalSpan reports it).
func (b *CPBaseline) Span() profile.Time { return b.span }

// Weights returns the baseline weight vector. The slice is shared with the
// baseline: read, don't mutate.
func (b *CPBaseline) Weights() []profile.Time { return b.weights }

// levelHeap is a minimal binary min-heap over (level, node) keys packed into
// one int64: level-ordered pops give the delta relaxation the same
// "all predecessors settled first" guarantee the level-synchronous full DP
// gets from its level sweep, without materializing per-level buckets.
type levelHeap []int64

func (h *levelHeap) push(level, node int32) {
	*h = append(*h, int64(level)<<32|int64(uint32(node)))
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p] <= (*h)[i] {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *levelHeap) pop() int32 {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && (*h)[l] < (*h)[small] {
			small = l
		}
		if r < last && (*h)[r] < (*h)[small] {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return int32(uint32(top))
}

// CriticalPathDelta computes the critical-path length of the graph under
// the baseline weights with edits overlaid (edits maps node → new weight),
// touching only the edited nodes' downstream cone. It seeds a dirty
// frontier at the edited nodes' successors and relaxes dirty nodes in
// ascending topological-level order, reading settled baseline distances
// everywhere the cone has not reached — a node whose recomputed distance
// equals its baseline distance stops the propagation through it.
//
// The result is exactly the full DP's: distances are pure maxima, so the
// value is independent of relaxation order, and the final span is the
// maximum effective finish, taken over the changed nodes directly and over
// the unchanged nodes via the baseline's top-finish index.
//
// ok is false when more than maxDirty nodes were relaxed (the edit's cone
// covers too much of the graph for sparse evaluation to win); the caller
// falls back to the full DP. All per-evaluation state lives in private
// maps, so concurrent evaluations against one baseline are safe.
func CriticalPathDelta(b *CPBaseline, edits map[core.NodeID]profile.Time, maxDirty int) (span profile.Time, ok bool) {
	if len(edits) == 0 {
		return b.span, true
	}
	g := b.g

	// distOverlay holds recomputed distances for the (few) nodes whose
	// distance actually changed; queued guards the frontier heap against
	// duplicate pushes.
	distOverlay := make(map[core.NodeID]profile.Time, len(edits))
	queued := make(map[core.NodeID]bool, len(edits))
	var frontier levelHeap

	weightOf := func(n core.NodeID) profile.Time {
		if w, hit := edits[n]; hit {
			return w
		}
		return b.weights[n]
	}
	distOf := func(n core.NodeID) profile.Time {
		if d, hit := distOverlay[n]; hit {
			return d
		}
		return b.dist[n]
	}
	dirty := func(n core.NodeID) {
		for _, ei := range g.Out(n) {
			to := g.EdgeTo(int(ei))
			if !queued[to] {
				queued[to] = true
				frontier.push(int32(g.Level(to)), int32(to))
			}
		}
	}

	for n, w := range edits {
		if w != b.weights[n] {
			dirty(n)
		}
	}

	relaxed := 0
	for len(frontier) > 0 {
		n := core.NodeID(frontier.pop())
		relaxed++
		if relaxed > maxDirty {
			return 0, false
		}
		var d profile.Time
		for _, ei := range g.In(n) {
			from := g.EdgeFrom(int(ei))
			if df := distOf(from) + weightOf(from); df > d {
				d = df
			}
		}
		if d == b.dist[n] {
			delete(distOverlay, n)
			continue
		}
		distOverlay[n] = d
		dirty(n)
	}

	// New span: max effective finish. Changed nodes (weight- or
	// distance-changed) are evaluated directly; the best unchanged node
	// comes from the baseline's top-finish index, or — when the change set
	// swallowed the whole index — one effective scan over all nodes.
	for n := range edits {
		if f := distOf(n) + weightOf(n); f > span {
			span = f
		}
	}
	for n := range distOverlay {
		if f := distOf(n) + weightOf(n); f > span {
			span = f
		}
	}
	b.topOnce.Do(b.top)
	for i, n := range b.topNodes {
		if _, changed := edits[n]; changed {
			continue
		}
		if _, changed := distOverlay[n]; changed {
			continue
		}
		if b.topFinish[i] > span {
			span = b.topFinish[i]
		}
		return span, true
	}
	if len(b.topNodes) == g.NumNodes() {
		// Every node is in the index and every indexed node changed: the
		// changed-node pass above already covered the maximum.
		return span, true
	}
	// The change set swallowed the whole top-finish index: resolving the
	// best unchanged finish would need a full effective scan through the
	// overlay maps, which costs more than the exact full DP. Decline.
	return 0, false
}
