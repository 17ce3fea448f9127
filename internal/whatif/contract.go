package whatif

import (
	"math"

	"graingraph/internal/core"
	"graingraph/internal/profile"
	"graingraph/internal/runpool"
)

// The perfect-cutoff family on the contracted graph. CollapseAtDepth{d}
// serializes every depth-d task subtree into its root's entry fragment.
// Instead of spilling a dense weight vector and re-running the full DP per
// depth, each region is contracted to one node: the DP runs over the nodes
// owned above depth d plus one node per depth-d root, and projected work is
// BaseWork minus the regions' fork/join/book-keeping overhead.
//
// The contraction is exact when a region's root slot s satisfies
//
//	(a) every edge from outside subtree(s) into it ends at s's entry
//	    fragment E, and no edge from inside it does;
//	(b) every edge leaving subtree(s) starts at one node x_s owned by s;
//	(c) s's own fragments lie on one path of s-owned nodes from E to x_s.
//
// After the collapse, the only weighted nodes of the region are E (its own
// weight plus everything moved into it) and s's other fragments, W_s in
// total. By (a) every path into the region passes E or stays inside it, so
// no region node finishes after dist(E) + W_s; by (c) the E→x_s path
// carries all of W_s, so x_s finishes exactly then; by (b) x_s is the only
// region node anything outside reads. With no edge into E from inside, E's
// start reads only nodes the contracted DP computes. The conditions do not
// depend on d, so they are checked once per slot; a depth with a root that
// fails them takes the generic evaluation path.

// noCut selects the plain finish-time DP: no slot sits at or below it.
const noCut = math.MaxInt32

// cutIndex is the engine's shared index for the contracted DP, built once
// on first use in two steps: the numbering and predecessor lists, which
// every dense DP needs, then the checks and regions only cutoffs need.
type cutIndex struct {
	// Positions number the nodes level by level, and within a level by
	// ascending owner depth, so a DP pass cut at depth d visits a prefix of
	// each level. levelOff delimits the levels, runs[runOff[l]:runOff[l+1]]
	// are level l's runs of one depth, posNode maps positions to nodes and
	// posOf nodes to positions, and pred lists each position's
	// predecessors as positions, CSR-style: a DP pass reads and writes one
	// position-ordered finish array.
	levelOff, runOff, posNode, posOf []int32
	runs                             []depthRun
	predOff, pred                    []int32

	// regions[regionOff[d]:regionOff[d+1]] are the slots at depth d with
	// an entry, in entry-position order: the order a DP pass meets them.
	regions   []region
	regionOff []int32

	// Per depth d: whether every slot at d satisfies (a)–(c), and the
	// fork/join/book-keeping weight owned at depth d or deeper — what a
	// collapse at d removes.
	depthExact    []bool
	overheadBelow []profile.Time

	// dense is set when no depth can contract: a node of unknown kind, or
	// weights whose sum overflows the signed accounting the dense path
	// uses. maxRootDepth is the deepest spawn-tree root; contracting at a
	// shallower depth would swallow the root's subtree, which the dense
	// path leaves alone.
	dense        bool
	maxRootDepth int32

	// build carries the numbering step's results to the checking step; nil
	// once the index is complete.
	build *cutBuild
}

// cutBuild is what the numbering step learns for the checking step: per
// slot, the fragment count, the slot's own fragment+chunk work (summed over
// its subtree by the checking step), and whether its entry fragment is one
// of its own nodes.
type cutBuild struct {
	frags []int32
	work  []profile.Time
	exact []bool
}

// depthRun is a level's positions of one owner depth, from start to the
// next run's start.
type depthRun struct{ start, depth int32 }

// region is one slot's subtree as a node of the contracted graph: its
// entry and exit positions (exit -1: nothing leaves it) and its
// fragment+chunk work.
type region struct {
	entry, exit int32
	work        profile.Time
}

// dag returns the engine's cutoff index with at least its numbering and
// predecessor lists built — what the plain DP reads — building them on the
// first call, on pool when the caller has one.
func (e *Engine) dag(pool *runpool.Runner) *cutIndex {
	e.dagOnce.Do(func() {
		sp := e.Obs.Child("whatif:cutindex")
		e.cut = numberNodes(e, pool)
		sp.End()
	})
	return e.cut
}

// cuts returns the complete cutoff index, building what is missing.
func (e *Engine) cuts(pool *runpool.Runner) *cutIndex {
	x := e.dag(pool)
	e.cutOnce.Do(func() {
		sp := e.Obs.Child("whatif:cutcheck")
		x.check(e)
		sp.End()
	})
	return x
}

// numberNodes numbers the nodes and gathers the predecessor lists, on the
// pool.
func numberNodes(e *Engine, pool *runpool.Runner) *cutIndex {
	g, own := e.G, e.own
	numNodes, numSlots, depths := g.NumNodes(), len(own.Grain), e.maxTaskDepth+2
	x := &cutIndex{
		levelOff:      make([]int32, g.NumLevels()+1),
		posNode:       make([]int32, numNodes),
		posOf:         make([]int32, numNodes),
		predOff:       make([]int32, numNodes+1),
		pred:          make([]int32, g.NumEdges()),
		regionOff:     make([]int32, depths+1),
		depthExact:    make([]bool, depths),
		overheadBelow: make([]profile.Time, depths),
	}
	b := &cutBuild{
		frags: make([]int32, numSlots),
		work:  make([]profile.Time, numSlots),
		exact: make([]bool, numSlots),
	}
	frags, work := b.frags, b.work
	for si := range b.exact {
		n := e.ownerEntry[si]
		b.exact[si] = n >= 0 && own.Of[n] == int32(si)
	}
	x.build = b

	// In node order: per-slot sums, the overflow guard — every sum either
	// evaluation path forms is bounded by the total weight — and the
	// depth and level counts the positions are sorted by.
	var total profile.Time
	depthOff := make([]int32, depths+2) // by depth+2: depths start at -1
	for n := 0; n < numNodes; n++ {
		si := own.Of[n]
		dep := own.Depth[si]
		depthOff[dep+2]++
		x.levelOff[g.Level(core.NodeID(n))+1]++
		w := e.baseW[n]
		if total += w; total > math.MaxInt64 || total < w {
			x.dense = true
		}
		switch g.Kind(core.NodeID(n)) {
		case core.NodeFragment:
			frags[si]++
			work[si] += w
		case core.NodeChunk:
			work[si] += w
		case core.NodeFork, core.NodeJoin, core.NodeBookkeep:
			if dep >= 0 {
				x.overheadBelow[dep] += w
			}
		default:
			x.dense = true
		}
		if e.ownerEntry[si] == int32(n) && dep >= 0 {
			x.regionOff[dep+1]++
		}
	}

	// Positions: a stable counting sort of the nodes by depth, then by
	// level. posOf holds the nodes in depth order until the positions
	// are known.
	for k := 1; k < len(depthOff); k++ {
		depthOff[k] += depthOff[k-1]
	}
	byDepth := x.posOf
	for n := 0; n < numNodes; n++ {
		k := own.Depth[own.Of[n]] + 1
		byDepth[depthOff[k]] = int32(n)
		depthOff[k]++
	}
	for l := 1; l < len(x.levelOff); l++ {
		x.levelOff[l] += x.levelOff[l-1]
	}
	levelNext := append([]int32(nil), x.levelOff...)
	for _, n := range byDepth {
		l := g.Level(core.NodeID(n))
		pos := levelNext[l]
		levelNext[l]++
		x.posNode[pos] = n
		x.predOff[pos+1] = int32(len(g.In(core.NodeID(n))))
	}
	for pos, n := range x.posNode {
		x.posOf[n] = int32(pos)
	}
	for pos := 0; pos < numNodes; pos++ {
		x.predOff[pos+1] += x.predOff[pos]
	}
	runpool.ParallelFor(pool, numNodes, gatherGrain, func(_, lo, hi int) {
		for pos := lo; pos < hi; pos++ {
			preds := x.pred[x.predOff[pos]:x.predOff[pos+1]]
			for j, ei := range g.In(core.NodeID(x.posNode[pos])) {
				preds[j] = x.posOf[g.EdgeFrom(int(ei))]
			}
		}
	})
	return x
}

// check completes the index: the depth runs, the regions, the checks of
// (a)–(c) in one pass over the positions, and the subtree work summed
// bottom-up.
func (x *cutIndex) check(e *Engine) {
	g, own, b := e.G, e.own, x.build
	numSlots, depths := len(own.Grain), len(x.depthExact)
	frags, work, exact := b.frags, b.work, b.exact
	perPos := e.getDense()
	defer e.putDense(perPos)
	x.build = nil
	x.runOff = make([]int32, len(x.levelOff))
	exitPos := make([]int32, numSlots)
	for si := range exitPos {
		exitPos[si] = -1
	}

	// In position order. Regions fill in position order, so each depth's
	// come out sorted by entry; until the bottom-up pass, a region's exit
	// holds its slot. perPos packs each visited position's owner slot (high
	// half) with the most fragments of its slot on a path of that slot's
	// nodes from its entry (0: no such path); predecessors sit at earlier
	// positions, so theirs are set when a position reads them.
	for d := 0; d < depths; d++ {
		x.regionOff[d+1] += x.regionOff[d]
	}
	x.regions = make([]region, x.regionOff[depths])
	next := append([]int32(nil), x.regionOff...)
	best := make([]int32, numSlots)
	for l := 0; l+1 < len(x.levelOff); l++ {
		for pos := x.levelOff[l]; pos < x.levelOff[l+1]; pos++ {
			n := x.posNode[pos]
			b := own.Of[n]
			isFrag, isEntry := int32(0), e.ownerEntry[b] == n
			if g.Kind(core.NodeID(n)) == core.NodeFragment {
				isFrag = 1
			}
			dep := own.Depth[b]
			if k := len(x.runs); pos == x.levelOff[l] || x.runs[k-1].depth != dep {
				x.runs = append(x.runs, depthRun{start: pos, depth: dep})
			}
			if isEntry && dep >= 0 {
				x.regions[next[dep]] = region{entry: pos, exit: b}
				next[dep]++
			}
			c := int32(0)
			for _, u := range x.pred[x.predOff[pos]:x.predOff[pos+1]] {
				a := int32(perPos[u] >> 32)
				if a == b {
					if isEntry {
						exact[b] = false // an edge inside b into its entry
					} else {
						c = max(c, int32(uint32(perPos[u])))
					}
					continue
				}
				// (a) and (b): the edge enters the subtree of every slot on
				// b's side below the lowest common ancestor of a and b, and
				// leaves that of every slot on a's side. Only b itself can
				// be entered, at its entry; only a itself can be left, from
				// its one exit.
				s, t := a, b
				for s != t {
					if t < 0 || (s >= 0 && own.Depth[s] > own.Depth[t]) {
						switch {
						case s != a:
							exact[s] = false
						case exitPos[s] < 0:
							exitPos[s] = u
						case exitPos[s] != u:
							exact[s] = false
						}
						s = own.Parent[s]
					} else {
						if t != b || !isEntry {
							exact[t] = false
						}
						t = own.Parent[t]
					}
				}
				if s == b && isEntry {
					exact[b] = false // an edge from inside b's subtree into its entry
				}
			}
			// (c), counted along the own-node paths from the entry.
			if isEntry {
				c = 1 + isFrag
			} else if c > 0 {
				c += isFrag
			}
			perPos[pos] = uint64(uint32(b))<<32 | uint64(c)
			best[b] = max(best[b], c)
		}
		x.runOff[l+1] = int32(len(x.runs))
	}
	for si := range exact {
		reach := best[si]
		if xp := exitPos[si]; xp >= 0 {
			reach = int32(uint32(perPos[xp]))
		}
		if reach-1 != frags[si] {
			exact[si] = false
		}
	}

	// Subtree work, children before parents.
	for i := len(own.ByDepth) - 1; i >= 0; i-- {
		if si := own.ByDepth[i]; own.Parent[si] >= 0 {
			work[own.Parent[si]] += work[si]
		}
	}
	for d := depths - 2; d >= 0; d-- {
		x.overheadBelow[d] += x.overheadBelow[d+1]
	}
	for d := range x.depthExact {
		x.depthExact[d] = true
	}
	x.maxRootDepth = math.MinInt32
	for si, dep := range own.Depth {
		if own.Parent[si] < 0 && dep > x.maxRootDepth {
			x.maxRootDepth = dep
		}
		if dep >= 0 && !exact[si] {
			x.depthExact[dep] = false
		}
	}
	for i := range x.regions {
		si := x.regions[i].exit
		x.regions[i].exit, x.regions[i].work = exitPos[si], work[si]
	}
}

// gatherGrain is the predecessor gather's chunk size in positions.
const gatherGrain = 1 << 14

// collapse evaluates CollapseAtDepth{d} on the graph contracted at depth d
// (d already clamped to maxTaskDepth+1). ok is false when d cannot
// contract exactly; the caller then takes the generic path.
func (x *cutIndex) collapse(e *Engine, d int32) (work, span profile.Time, ok bool) {
	if x.dense || d < 0 || d < x.maxRootDepth || !x.depthExact[d] {
		return 0, 0, false
	}
	fin := e.getDense()
	span = x.finish(e.baseW, d, fin)
	e.putDense(fin)
	return e.BaseWork - x.overheadBelow[d], span, true
}

// finish is the finish-time DP over positions, returning the span. Every
// position at a depth below d finishes at its start (the latest finish
// among its predecessors) plus its weight; each depth-d region finishes at
// its entry's start plus its work, written to its entry and exit; deeper
// positions, and the regions' other nodes, are skipped — by (a)–(c)
// nothing outside a region reads them. With d = noCut it is the plain DP
// of the dense weight vector, whose span equals metrics.CriticalSpan's.
// fin is one element per position. The weights are w, by node, or, when w
// is nil, fin's own contents, by position, which the DP overwrites with
// the finish times: a position's predecessors sit at earlier positions,
// so each weight is read before its finish time replaces it.
func (x *cutIndex) finish(w []profile.Time, d int32, fin []profile.Time) profile.Time {
	cut := d != noCut
	var regions []region
	if cut {
		regions = x.regions[x.regionOff[d]:x.regionOff[d+1]]
	}
	start := func(i int32) profile.Time {
		var f profile.Time
		for _, p := range x.pred[x.predOff[i]:x.predOff[i+1]] {
			f = max(f, fin[p])
		}
		return f
	}
	var span profile.Time
	for l := 0; l+1 < len(x.levelOff); l++ {
		// Level l computes its positions shallower than d, then the
		// entries of its depth-d regions.
		shallow, end := x.levelOff[l+1], x.levelOff[l+1]
		if cut {
			shallow, end = x.cutLevel(l, d)
		}
		for i := x.levelOff[l]; i < shallow; i++ {
			f := start(i)
			if w != nil {
				f += w[x.posNode[i]]
			} else {
				f += fin[i]
			}
			fin[i] = f
			span = max(span, f)
		}
		for ; len(regions) > 0 && regions[0].entry < end; regions = regions[1:] {
			i := regions[0].entry
			f := start(i) + regions[0].work
			fin[i] = f
			if xp := regions[0].exit; xp >= 0 {
				fin[xp] = f
			}
			span = max(span, f)
		}
	}
	return span
}

// cutLevel returns where level l's positions at depth d or deeper start,
// and where its depth-d positions end.
func (x *cutIndex) cutLevel(l int, d int32) (shallow, end int32) {
	for r := x.runOff[l]; r < x.runOff[l+1]; r++ {
		run := x.runs[r]
		if run.depth < d {
			continue
		}
		if run.depth > d {
			return run.start, run.start
		}
		if r+1 < x.runOff[l+1] {
			return run.start, x.runs[r+1].start
		}
		return run.start, x.levelOff[l+1]
	}
	return x.levelOff[l+1], x.levelOff[l+1]
}
