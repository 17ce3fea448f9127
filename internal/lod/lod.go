// Package lod builds a level-of-detail summary index over a grain graph and
// answers windowed queries against it. The paper's workflow is navigation —
// zoom into a subtree, collapse what you are not looking at, follow the
// critical path — yet a million-grain run renders as a 3.6M-node DOT file
// no tool can open. The index aggregates every task's spawn subtree
// (work, node/task counts, highlight-problem counts, time extents,
// critical-path membership) in one pass; Window then materializes a small
// core.Graph for a chosen root, depth and fan-out budget, collapsing
// everything else into super-nodes while keeping the critical-path spine
// exact: a subtree containing critical nodes is always expanded down to the
// critical grains themselves, whatever the depth and top limits say.
//
// The windowed graph is a fresh *core.Graph sharing the original Trace, so
// the existing DOT/JSON exporters and the layout pass consume it unchanged.
// Queries do no string parsing and no full-graph scans — cost is
// proportional to the nodes and edges actually shown — so any window over a
// multi-million-node graph answers in milliseconds after the one-time
// index build.
package lod

import (
	"fmt"

	"graingraph/internal/core"
	"graingraph/internal/highlight"
	"graingraph/internal/profile"
	"graingraph/internal/query"
)

// Index is the hierarchical summary: one record per task grain (slot),
// parent-linked as a spawn tree, with subtree aggregates rolled up from the
// leaves. Building is a handful of linear passes; the index is immutable
// afterwards and safe for concurrent Window calls.
type Index struct {
	g *core.Graph

	// Slots follow the graph's owner-task table (core.Owners): grain (each
	// slot's grain number), depth and par are its per-slot columns,
	// ownerOf its per-node one; slotOf maps a grain number back to its
	// slot (-1: none). ids is the sidecar's column of the slots' grain
	// IDs, held by a decoded index only; id derives one from grain.
	grain  []int32
	slotOf []int32
	ids    []profile.GrainID
	depth  []int32
	par    []int32

	// children CSR, each parent's children sorted by descending subtree
	// work (slot index breaks ties) — Window's top-N selection reads a
	// prefix.
	childOff []int32
	childIdx []int32

	// nodeOff/nodeIdx is the inverse CSR of ownerOf: each slot's nodes.
	ownerOf  []int32
	nodeOff  []int32
	nodeIdx  []int32
	ownWork  []int64
	critSelf []bool
	probSelf []int32

	// Subtree rollups (self included).
	subWork  []int64
	subNodes []int32
	subTasks []int32
	subProbs []int32
	critSub  []bool
	startMin []profile.Time
	endMax   []profile.Time
}

// Build constructs the summary index. a may be nil (no problem counts).
func Build(g *core.Graph, a *highlight.Assessment) *Index {
	own := g.Owners()
	numSlots := len(own.Grain)
	numNodes := core.NodeID(g.NumNodes())
	ix := &Index{
		g:        g,
		grain:    own.Grain,
		depth:    own.Depth,
		par:      own.Parent,
		ownerOf:  own.Of,
		ownWork:  make([]int64, numSlots),
		critSelf: make([]bool, numSlots),
		probSelf: make([]int32, numSlots),
		startMin: make([]profile.Time, numSlots),
		endMax:   make([]profile.Time, numSlots),
	}
	ix.indexSlots()

	for n := core.NodeID(0); n < numNodes; n++ {
		si := ix.ownerOf[n]
		ix.ownWork[si] += int64(g.Weight(n))
		if g.Critical(n) {
			ix.critSelf[si] = true
		}
		if s := g.Start(n); ix.startMin[si] == 0 || (s != 0 && s < ix.startMin[si]) {
			ix.startMin[si] = s
		}
		if e := g.End(n); e > ix.endMax[si] {
			ix.endMax[si] = e
		}
	}

	// Problem counts: flagged task grains count against their own slot,
	// flagged chunk grains against the slot of the task that ran their loop.
	if a != nil {
		rep := a.Report
		atr := rep.Trace
		for row, m := range a.Mask {
			if m == 0 {
				continue
			}
			num := rep.Num[row]
			gnum := num
			if atr != g.Trace {
				gnum = g.LookupGrain(atr.ID(num))
			}
			si := ix.slot(gnum)
			if j := int(num) - len(atr.Tasks); si < 0 && j >= 0 && j < len(atr.Chunks) {
				if owner, ok := own.LoopOwner[atr.Chunks[j].Loop]; ok {
					si = ix.slot(owner)
				}
			}
			if si >= 0 {
				ix.probSelf[si]++
			}
		}
	}

	// Owned-node CSR via counting sort.
	ix.nodeOff = make([]int32, numSlots+1)
	for _, si := range ix.ownerOf {
		ix.nodeOff[si+1]++
	}
	for i := 0; i < numSlots; i++ {
		ix.nodeOff[i+1] += ix.nodeOff[i]
	}
	ix.nodeIdx = make([]int32, numNodes)
	for n := core.NodeID(0); n < numNodes; n++ {
		si := ix.ownerOf[n]
		ix.nodeIdx[ix.nodeOff[si]] = int32(n)
		ix.nodeOff[si]++
	}
	unshift(ix.nodeOff)

	// Rollups, deepest depth first so children settle before parents.
	ix.subWork = make([]int64, numSlots)
	ix.subNodes = make([]int32, numSlots)
	ix.subTasks = make([]int32, numSlots)
	ix.subProbs = make([]int32, numSlots)
	ix.critSub = make([]bool, numSlots)
	for si := 0; si < numSlots; si++ {
		ix.subWork[si] = ix.ownWork[si]
		ix.subNodes[si] = ix.nodeOff[si+1] - ix.nodeOff[si]
		ix.subTasks[si] = 1
		ix.subProbs[si] = ix.probSelf[si]
		ix.critSub[si] = ix.critSelf[si]
	}
	for i := len(own.ByDepth) - 1; i >= 0; i-- {
		si := own.ByDepth[i]
		p := ix.par[si]
		if p < 0 {
			continue
		}
		ix.subWork[p] += ix.subWork[si]
		ix.subNodes[p] += ix.subNodes[si]
		ix.subTasks[p] += ix.subTasks[si]
		ix.subProbs[p] += ix.subProbs[si]
		if ix.critSub[si] {
			ix.critSub[p] = true
		}
		if s := ix.startMin[si]; s != 0 && (ix.startMin[p] == 0 || s < ix.startMin[p]) {
			ix.startMin[p] = s
		}
		if e := ix.endMax[si]; e > ix.endMax[p] {
			ix.endMax[p] = e
		}
	}

	// Children CSR, sorted by (subWork desc, slot asc) per parent with an
	// insertion pass — fan-outs are small compared to the graph.
	ix.childOff = make([]int32, numSlots+1)
	for _, p := range ix.par {
		if p >= 0 {
			ix.childOff[p+1]++
		}
	}
	for i := 0; i < numSlots; i++ {
		ix.childOff[i+1] += ix.childOff[i]
	}
	ix.childIdx = make([]int32, ix.childOff[numSlots])
	for si := int32(0); si < int32(numSlots); si++ {
		if p := ix.par[si]; p >= 0 {
			ix.childIdx[ix.childOff[p]] = si
			ix.childOff[p]++
		}
	}
	unshift(ix.childOff)
	for p := 0; p < numSlots; p++ {
		kids := ix.childIdx[ix.childOff[p]:ix.childOff[p+1]]
		for i := 1; i < len(kids); i++ {
			k := kids[i]
			j := i
			for j > 0 && (ix.subWork[kids[j-1]] < ix.subWork[k] ||
				(ix.subWork[kids[j-1]] == ix.subWork[k] && kids[j-1] > k)) {
				kids[j] = kids[j-1]
				j--
			}
			kids[j] = k
		}
	}
	return ix
}

// unshift turns CSR offsets that were advanced as fill cursors — each
// off[i] moved to the end of row i — back into row starts.
func unshift(off []int32) {
	copy(off[1:], off)
	off[0] = 0
}

// id returns slot si's grain ID.
func (ix *Index) id(si int32) profile.GrainID { return ix.g.GrainID(ix.grain[si]) }

// indexSlots builds slotOf from grain. It reports the first slot whose
// grain an earlier slot already claimed, or -1.
func (ix *Index) indexSlots() (dup int) {
	ix.slotOf = make([]int32, ix.g.NumGrainNums())
	for i := range ix.slotOf {
		ix.slotOf[i] = -1
	}
	dup = -1
	for si, num := range ix.grain {
		if ix.slotOf[num] >= 0 && dup < 0 {
			dup = si
		}
		ix.slotOf[num] = int32(si)
	}
	return dup
}

// slot returns the slot of grain number num, or -1.
func (ix *Index) slot(num int32) int32 {
	if num >= 0 && int(num) < len(ix.slotOf) {
		return ix.slotOf[num]
	}
	return -1
}

// WindowOptions selects what a windowed query shows.
type WindowOptions struct {
	// Root is the subtree to render (default: the whole-program root "R").
	Root profile.GrainID
	// Depth is how many spawn levels below Root stay expanded (default 3).
	Depth int
	// Top bounds how many children of each expanded task are shown
	// individually, heaviest subtree first (default 8); the rest collapse
	// into one "rest" super-node per parent. Subtrees containing
	// critical-path nodes are always expanded, beyond both limits.
	Top int
}

// WithDefaults fills the zero fields with the defaults above and rejects
// negative limits: the range check Window applies, available to callers
// that validate a request before they have an index to run it on.
func (o WindowOptions) WithDefaults() (WindowOptions, error) {
	if o.Root == "" {
		o.Root = profile.RootID
	}
	if o.Depth == 0 {
		o.Depth = 3
	}
	if o.Top == 0 {
		o.Top = 8
	}
	if o.Depth < 0 {
		return o, fmt.Errorf("lod: negative window depth %d", o.Depth)
	}
	if o.Top < 0 {
		return o, fmt.Errorf("lod: negative window top %d", o.Top)
	}
	return o, nil
}

// WindowStats summarizes what a windowed query kept and collapsed.
type WindowStats struct {
	Expanded   int // tasks shown in full
	SuperNodes int // collapsed subtree / loop-rest / sibling-rest nodes
	Nodes      int // nodes in the windowed graph
	Edges      int // edges in the windowed graph
	SourceSize int // nodes in the underlying full graph
}

// windowBuild carries the per-query state of one Window materialization.
type windowBuild struct {
	ix  *Index
	opt WindowOptions
	out *core.Graph

	recorded  int32         // grain numbers below it are the trace's, shared by out
	nodeMap   []int32       // original node -> new node + 1, 0 when not shown
	included  []core.NodeID // original IDs of copied nodes, in emission order
	regionRep []int32       // slot -> super-node absorbing its subtree, -1 none
	loopRest  map[profile.LoopID]int32
	stats     WindowStats
}

// Window materializes the level-of-detail view described by opt as a fresh
// grain graph sharing the original trace. Expanded tasks keep their real
// nodes; collapsed subtrees, overflowing siblings and oversized loops
// become aggregate super-nodes. The construction is fully deterministic:
// child order comes from the index, node and edge emission follow original
// node order, and no map iteration reaches the output.
func (ix *Index) Window(opt WindowOptions) (*core.Graph, WindowStats, error) {
	opt, err := opt.WithDefaults()
	if err != nil {
		return nil, WindowStats{}, err
	}
	rootSlot := ix.slot(ix.g.LookupGrain(opt.Root))
	if rootSlot < 0 {
		return nil, WindowStats{}, fmt.Errorf("lod: unknown window root %q", opt.Root)
	}

	b := &windowBuild{
		ix:        ix,
		opt:       opt,
		out:       core.NewGraph(ix.g.Trace),
		nodeMap:   make([]int32, ix.g.NumNodes()),
		regionRep: make([]int32, len(ix.grain)),
		loopRest:  make(map[profile.LoopID]int32),
	}
	b.recorded = int32(b.out.NumGrainNums()) // nothing hand-named yet
	for i := range b.regionRep {
		b.regionRep[i] = -1
	}
	b.stats.SourceSize = ix.g.NumNodes()

	b.expand(rootSlot, 0)
	b.emitEdges()
	b.stats.Nodes = b.out.NumNodes()
	b.stats.Edges = b.out.NumEdges()
	return b.out, b.stats, nil
}

// expand includes task slot si's own nodes, decides which children stay
// expanded (top-N by subtree work within the depth budget, plus every
// critical subtree), and collapses the rest into super-nodes.
func (b *windowBuild) expand(si int32, rel int) {
	ix := b.ix
	b.stats.Expanded++

	// Own nodes, grouped so oversized loops collapse: non-chunk nodes copy
	// straight through; a loop's chunks copy only when the loop is small
	// enough or critical chunks force them (critical chunks always copy,
	// the rest collapse into one loop super-node).
	type loopAgg struct {
		loop    profile.LoopID
		rest    int32
		work    int64
		started bool
	}
	owned := ix.nodeIdx[ix.nodeOff[si]:ix.nodeOff[si+1]]
	chunkCount := make(map[profile.LoopID]int32)
	for _, ni := range owned {
		if ix.g.Kind(core.NodeID(ni)) == core.NodeChunk {
			chunkCount[ix.g.Loop(core.NodeID(ni))]++
		}
	}
	chunkLimit := int32(b.opt.Top)
	if chunkLimit < 8 {
		chunkLimit = 8
	}
	var aggs []*loopAgg
	agg := make(map[profile.LoopID]*loopAgg)
	for _, ni := range owned {
		n := core.NodeID(ni)
		if ix.g.Kind(n) != core.NodeChunk {
			b.copyNode(n)
			continue
		}
		loop := ix.g.Loop(n)
		if chunkCount[loop] <= chunkLimit || ix.g.Critical(n) {
			b.copyNode(n)
			continue
		}
		a := agg[loop]
		if a == nil {
			a = &loopAgg{loop: loop}
			agg[loop] = a
			aggs = append(aggs, a)
		}
		a.work += int64(ix.g.Weight(n))
		a.rest++
	}
	for _, a := range aggs {
		nid := b.addNode(core.Node{
			Kind:     core.NodeChunk,
			Grain:    ix.id(si),
			GrainNum: ix.grain[si],
			Loop:     a.loop,
			Label:    fmt.Sprintf("%d chunks · work %d", a.rest, a.work),
			Weight:   profile.Time(a.work),
			Members:  int(a.rest),
		})
		b.loopRest[a.loop] = int32(nid)
		b.stats.SuperNodes++
	}

	// Children: expand critical subtrees unconditionally; of the rest, the
	// heaviest Top within the depth budget. The heaviest-first choice runs
	// through query.TopK — the same bounded-selection kernel behind the
	// query grammar's topk verb — under (subtree work desc, slot asc), the
	// order the children CSR is already sorted by, so the selected set and
	// the emission order match the sorted-prefix scan this replaced.
	kids := ix.childIdx[ix.childOff[si]:ix.childOff[si+1]]
	keep := make([]bool, len(kids))
	var nonCrit []int32
	for i, c := range kids {
		if ix.critSub[c] {
			keep[i] = true
		} else {
			nonCrit = append(nonCrit, int32(i))
		}
	}
	if rel < b.opt.Depth {
		for _, r := range query.TopK(len(nonCrit), b.opt.Top, func(i, j int) bool {
			ci, cj := kids[nonCrit[i]], kids[nonCrit[j]]
			if ix.subWork[ci] != ix.subWork[cj] {
				return ix.subWork[ci] > ix.subWork[cj]
			}
			return ci < cj
		}) {
			keep[nonCrit[r]] = true
		}
	}
	var rest []int32
	for i, c := range kids {
		if keep[i] {
			b.expand(c, rel+1)
		} else {
			rest = append(rest, c)
		}
	}
	if len(rest) > 0 {
		var work, probs int64
		var nodes, tasks int32
		var start, end profile.Time
		for _, c := range rest {
			work += ix.subWork[c]
			probs += int64(ix.subProbs[c])
			nodes += ix.subNodes[c]
			tasks += ix.subTasks[c]
			if s := ix.startMin[c]; s != 0 && (start == 0 || s < start) {
				start = s
			}
			if e := ix.endMax[c]; e > end {
				end = e
			}
		}
		label := fmt.Sprintf("%d subtrees of %s · %d tasks · %d nodes · work %d",
			len(rest), ix.id(si), tasks, nodes, work)
		if probs > 0 {
			label += fmt.Sprintf(" · %d problems", probs)
		}
		nid := b.addNode(core.Node{
			Kind:     core.NodeFragment,
			Grain:    ix.id(si),
			GrainNum: ix.grain[si],
			Label:    label,
			Start:    start,
			End:      end,
			Weight:   profile.Time(work),
			Members:  int(nodes),
		})
		for _, c := range rest {
			b.regionRep[c] = int32(nid)
		}
		b.stats.SuperNodes++
	}
}

// copyNode includes one original node verbatim; its layout is not copied,
// and is computed for the window later. The windowed graph carries no grain
// entry/exit tables: nothing downstream of a window reads them, and tables
// sized to the trace would cost more than the window itself.
func (b *windowBuild) copyNode(n core.NodeID) {
	nid := b.addNode(b.ix.g.NodeAt(n))
	b.nodeMap[n] = int32(nid) + 1
	b.included = append(b.included, n)
}

// addNode appends a node to the windowed graph. It shares the source
// graph's trace, hence its numbers for every grain the trace records; a
// grain only the source graph names is named again by ID.
func (b *windowBuild) addNode(n core.Node) core.NodeID {
	if n.GrainNum < b.recorded {
		return b.out.AddNodeNum(n)
	}
	return b.out.AddNode(n)
}

// rep resolves an original node to its windowed representative: itself when
// shown, its loop's rest super-node for collapsed chunks, else the
// super-node absorbing the nearest collapsed ancestor subtree; -1 when the
// node is outside the window entirely.
func (b *windowBuild) rep(n core.NodeID) int32 {
	if m := b.nodeMap[n]; m > 0 {
		return m - 1
	}
	if b.ix.g.Kind(n) == core.NodeChunk {
		if r, ok := b.loopRest[b.ix.g.Loop(n)]; ok {
			return r
		}
	}
	for si := b.ix.ownerOf[n]; si >= 0; si = b.ix.par[si] {
		if r := b.regionRep[si]; r >= 0 {
			return r
		}
	}
	return -1
}

// emitEdges walks the shown nodes — only those; window cost must not scale
// with the source graph — and maps each adjacent edge through rep,
// deduplicating parallel edges between the same windowed endpoints
// (critical-path membership ORs across the merged set). Edges wholly inside
// one collapsed region vanish with it. The walk follows expand's emission
// order, which is deterministic, so edge order is too.
func (b *windowBuild) emitEdges() {
	g := b.ix.g
	type key struct {
		from, to int32
		kind     core.EdgeKind
	}
	seen := make(map[key]int)
	add := func(from, to int32, kind core.EdgeKind, critical bool) {
		if from < 0 || to < 0 || from == to {
			return
		}
		k := key{from, to, kind}
		if ei, ok := seen[k]; ok {
			if critical && !b.out.EdgeCritical(ei) {
				b.out.SetEdgeCritical(ei, true)
			}
			return
		}
		b.out.AddEdge(core.NodeID(from), core.NodeID(to), kind)
		ei := b.out.NumEdges() - 1
		if critical {
			b.out.SetEdgeCritical(ei, true)
		}
		seen[key{from, to, kind}] = ei
	}
	for _, n := range b.included {
		nid := b.nodeMap[n] - 1
		for _, ei := range g.Out(n) {
			e := int(ei)
			add(nid, b.rep(g.EdgeTo(e)), g.EdgeKindAt(e), g.EdgeCritical(e))
		}
		for _, ei := range g.In(n) {
			e := int(ei)
			from := g.EdgeFrom(e)
			if b.nodeMap[from] > 0 {
				continue // emitted by the source's own out-pass
			}
			add(b.rep(from), nid, g.EdgeKindAt(e), g.EdgeCritical(e))
		}
	}
}
