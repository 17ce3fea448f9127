// Package whatif is a causal-profiling layer over the grain graph: it
// applies hypothetical transformations to a recorded run — scale a grain's
// (or subtree's) work, collapse a broken-cutoff subtree into its parent,
// remove measured work inflation, lift the core count to infinity — and
// recomputes critical path, average parallelism and projected makespan
// *without re-running the simulation*, in the spirit of TASKPROF's what-if
// analyses. The paper's workflow (diagnose → fix → re-profile, §5) tells
// the programmer where to act; this layer estimates how much each candidate
// fix would pay, so it answers "fix this first".
//
// Evaluation is incremental: a hypothesis edits a sparse overlay over the
// baseline weight vector instead of copying it, projected work is tracked
// as BaseWork + Δ, and the projected span is recomputed by a delta-aware
// critical-path DP (metrics.CriticalPathDelta) that relaxes only the edited
// nodes' downstream cone against the baseline distances. Hypotheses whose
// edit set or dirty cone covers too much of the graph spill to a dense
// vector and take an exact full DP. Perfect cutoffs at a spawn depth are
// evaluated on the graph contracted at that depth (contract.go). EvalFull
// always materializes the edited vector and runs the analysis's own
// critical-path DP (metrics.CriticalPathOverPool): it is the bit-exact
// oracle both fast paths are tested against.
//
// Soundness: weight transformations (ScaleGrain, ZeroInflation) are exact
// with respect to the model — the graph's structure is unchanged, so the
// recomputed critical path is the true critical path of the transformed
// DAG, and the makespan projection only assumes the removed work was spread
// evenly across cores. Structural transformations (CollapseSubtree,
// CollapseAtDepth) are approximate: serializing a subtree into its root
// changes scheduling in ways a fixed DAG cannot fully capture, so their
// projections carry Approximate=true. See DESIGN.md §7 and §11.
package whatif

import (
	"fmt"
	"sync"
	"sync/atomic"

	"graingraph/internal/core"
	"graingraph/internal/metrics"
	"graingraph/internal/obs"
	"graingraph/internal/profile"
	"graingraph/internal/runpool"
)

// Hypothesis is one hypothetical transformation of a recorded grain graph.
type Hypothesis interface {
	// Label names the hypothesis for tables and annotations. Labels are
	// unique per generated candidate set and serve as deterministic
	// tie-breakers.
	Label() string
	// Approximate reports whether the projection changes graph structure
	// (serialization) rather than applying sound weight algebra.
	Approximate() bool
	// apply writes the hypothesis's weight edits into the overlay and
	// reports whether the hypothesis models an unbounded core count.
	apply(e *Engine, w *weightOverlay) (infiniteCores bool)
}

// Projection is the outcome of evaluating one hypothesis.
type Projection struct {
	Label       string
	Approximate bool

	// Projected quantities: total work (sum of node weights), critical
	// path length, and makespan under the transformation.
	Work, Span, Makespan profile.Time

	// Baseline quantities for reference.
	BaseWork, BaseSpan, BaseMakespan profile.Time

	// Speedup is BaseMakespan / Makespan; above 1 the hypothesis pays.
	Speedup float64
	// AvgParallelism is projected work over projected makespan.
	AvgParallelism float64
}

// WorkDelta returns the fraction of baseline work the hypothesis removes
// (negative when it adds work).
func (p Projection) WorkDelta() float64 {
	if p.BaseWork == 0 {
		return 0
	}
	return (float64(p.BaseWork) - float64(p.Work)) / float64(p.BaseWork)
}

// Sparse-evaluation thresholds. Below spillMinEdits the overlay never
// spills and the delta DP never declines, so small graphs (every unit test)
// take the sparse path unconditionally — the oracle tests pin it to the
// full DP bit for bit. On large graphs a hypothesis editing more than
// 1/spillFraction of the nodes materializes a dense vector up front (map
// overhead would dwarf the DP), and a sparse evaluation whose dirty cone
// exceeds 1/dirtyFraction of the nodes abandons the delta DP for the exact
// full relaxation.
const (
	spillMinEdits = 4096
	spillFraction = 16
	dirtyFraction = 128
)

// EvalStats counts how evaluations were satisfied since engine creation.
type EvalStats struct {
	// Sparse evaluations completed on the delta DP alone.
	Sparse uint64
	// Contracted perfect-cutoff evaluations completed on the graph
	// contracted at their depth.
	Contracted uint64
	// Full evaluations that ran a dense full DP (EvalFull calls plus
	// sparse fallbacks).
	Full uint64
	// Fallback counts the subset of Full where Eval started sparse but the
	// edit set spilled or the dirty cone exceeded the fallback fraction.
	Fallback uint64
}

// Engine evaluates hypotheses against one recorded run. Construction
// precomputes the baseline — work, the critical-path DP state reused by
// every sparse evaluation, the owner-task table and the deepest task depth
// — and forces the graph's adjacency and level indexes, so Eval is safe to
// call concurrently from EvalAll's worker pool: every evaluation works on
// its own sparse overlay and only reads the shared baseline.
type Engine struct {
	G   *core.Graph
	Rep *metrics.Report // optional; required for inflation hypotheses

	Cores        int
	BaseMakespan profile.Time
	BaseWork     profile.Time
	BaseSpan     profile.Time

	// Obs, when set, receives child spans for every evaluation
	// ("whatif:eval", with "whatif:eval:fulldp" nested under full-DP
	// evaluations), feeding the -phases accounting. May be nil.
	Obs *obs.Span

	// baseW is the immutable baseline weight vector shared by all
	// evaluations; cpBase is the settled critical-path DP over it.
	baseW  []profile.Time
	cpBase *metrics.CPBaseline

	// deviation holds each grain's measured work deviation above 1 by
	// grain number (0: none measured), pulled from the report once;
	// inflated says whether any grain has one.
	deviation []float64
	inflated  bool

	// maxTaskDepth is the deepest spawn-tree depth among task grains,
	// computed once here so Candidates does not re-scan the node table per
	// Rank call.
	maxTaskDepth int

	// The graph's owner-task table (core.Owners): collapse hypotheses touch
	// every node, so their per-node owner resolution must be array reads.
	// own maps each node to the slot of its owning task and links the slots
	// into the spawn tree; ownerEntry adds each slot's entry fragment (-1
	// when the task has none).
	own        *core.Owners
	ownerEntry []int32

	// The perfect-cutoff index (contract.go), built on first use; the
	// dense DP runs on its numbering and predecessor lists, which dagOnce
	// builds, while cutOnce completes the rest.
	dagOnce, cutOnce sync.Once
	cut              *cutIndex

	// scratch is a free list of node-sized buffers: dense weight vectors,
	// DP finish times, the collapse accumulator and the cutoff index's
	// build tables. Without reuse each dense evaluation allocates tens of
	// MB that the collector has to chase. A plain list, unlike a
	// sync.Pool, hands a buffer one worker returned to the next worker
	// that asks.
	scratchMu sync.Mutex
	scratch   [][]profile.Time

	sparseEvals, contractedEvals, fullEvals, fallbackEvals atomic.Uint64
}

// getDense returns a node-sized buffer with arbitrary contents; putDense
// recycles it.
func (e *Engine) getDense() []profile.Time {
	e.scratchMu.Lock()
	defer e.scratchMu.Unlock()
	if k := len(e.scratch); k > 0 {
		b := e.scratch[k-1]
		e.scratch = e.scratch[:k-1]
		return b
	}
	return make([]profile.Time, e.G.NumNodes())
}

func (e *Engine) putDense(b []profile.Time) {
	e.scratchMu.Lock()
	e.scratch = append(e.scratch, b)
	e.scratchMu.Unlock()
}

// New builds an engine over a grain graph and its (optional) metric report.
// The graph's trace supplies core count and observed makespan; hand-built
// graphs without timing fall back to the work/span bound.
func New(g *core.Graph, rep *metrics.Report) *Engine {
	e := &Engine{G: g, Rep: rep, Cores: 1}
	if g.Trace != nil {
		if g.Trace.Cores > 0 {
			e.Cores = g.Trace.Cores
		}
		e.BaseMakespan = g.Trace.Makespan()
	}
	if g.NumNodes() > 0 {
		// Force every lazy index evaluation touches (out/in adjacency and
		// the topological level index used by the critical-path DPs) before
		// EvalAll fans evaluations across the pool: building them is not
		// goroutine-safe, reading them is.
		g.Out(0)
		g.In(0)
		g.NumLevels()
	}
	// One DP run settles the baseline distances every sparse evaluation
	// relaxes against; its weight copy doubles as the shared baseline
	// vector.
	e.cpBase = metrics.NewCPBaseline(g, nil, nil)
	e.baseW = e.cpBase.Weights()
	for _, w := range e.baseW {
		e.BaseWork += w
	}
	e.BaseSpan = e.cpBase.Span()
	if e.BaseMakespan == 0 {
		// No recorded timing (synthetic graph): Brent's bound as baseline.
		e.BaseMakespan = e.BaseSpan
		if perCore := e.BaseWork / profile.Time(e.Cores); perCore > e.BaseMakespan {
			e.BaseMakespan = perCore
		}
	}
	if rep != nil {
		e.deviation = make([]float64, g.NumGrainNums())
		for row, wd := range rep.WorkDev {
			if wd <= 1 {
				continue
			}
			num := rep.Num[row]
			if rep.Trace != g.Trace {
				num = g.LookupGrain(rep.ID(row))
			}
			if num >= 0 && int(num) < len(e.deviation) {
				e.deviation[num] = wd
				e.inflated = true
			}
		}
	}
	e.own = g.Owners()
	e.resolveEntries()
	// The deepest populated spawn depth falls out of the slot table — owner
	// depths cover every task grain (chunk grains are not tasks and never
	// carry a depth).
	for _, d := range e.own.Depth {
		if int(d) > e.maxTaskDepth {
			e.maxTaskDepth = int(d)
		}
	}
	return e
}

// resolveEntries fills each owner slot's entry fragment: the grain's
// FirstNode when recorded, else its first fragment in node order.
func (e *Engine) resolveEntries() {
	g := e.G
	e.ownerEntry = make([]int32, len(e.own.Grain))
	for si := range e.ownerEntry {
		e.ownerEntry[si] = -1
	}
	for n := core.NodeID(0); n < core.NodeID(g.NumNodes()); n++ {
		if g.Kind(n) != core.NodeFragment {
			continue
		}
		if si := e.own.Of[n]; e.ownerEntry[si] < 0 {
			e.ownerEntry[si] = int32(n)
		}
	}
	for si, num := range e.own.Grain {
		if n := g.First(num); n >= 0 {
			e.ownerEntry[si] = int32(n)
		}
	}
}

// Stats reports how many evaluations ran sparse versus full since the
// engine was built. Safe to call concurrently with evaluations.
func (e *Engine) Stats() EvalStats {
	return EvalStats{
		Sparse:     e.sparseEvals.Load(),
		Contracted: e.contractedEvals.Load(),
		Full:       e.fullEvals.Load(),
		Fallback:   e.fallbackEvals.Load(),
	}
}

// weightOverlay collects a hypothesis's weight edits as a sparse map over
// the shared baseline vector, spilling to a private dense copy when the
// edit set grows past spillAt. workDelta tracks Σ(new − old) so projected
// work is BaseWork + Δ with no re-summation.
type weightOverlay struct {
	base    []profile.Time
	edits   map[core.NodeID]profile.Time
	dense   []profile.Time // non-nil once spilled: the full edited vector
	spillAt int
	delta   int64
	// alloc, when set, supplies the dense buffer on spill (pooled scratch
	// from the engine); nil allocates fresh.
	alloc func() []profile.Time
}

func newOverlay(base []profile.Time, spillAt int) *weightOverlay {
	return &weightOverlay{base: base, spillAt: spillAt}
}

// At returns node n's effective weight under the edits so far.
func (v *weightOverlay) At(n core.NodeID) profile.Time {
	if v.dense != nil {
		return v.dense[n]
	}
	if w, ok := v.edits[n]; ok {
		return w
	}
	return v.base[n]
}

// Set records node n's new weight. No-op writes (new value == effective
// current value) are dropped so zeroing an already-zero overhead node does
// not grow the edit set.
func (v *weightOverlay) Set(n core.NodeID, w profile.Time) {
	old := v.At(n)
	if w == old {
		return
	}
	v.delta += int64(w) - int64(old)
	if v.dense != nil {
		v.dense[n] = w
		return
	}
	if v.edits == nil {
		v.edits = make(map[core.NodeID]profile.Time)
	}
	v.edits[n] = w
	if len(v.edits) > v.spillAt {
		v.spill()
	}
}

// spill materializes the dense edited vector; subsequent edits write
// through directly.
func (v *weightOverlay) spill() {
	if v.dense != nil {
		return
	}
	if v.alloc != nil {
		v.dense = v.alloc()
	} else {
		v.dense = make([]profile.Time, len(v.base))
	}
	copy(v.dense, v.base)
	for n, w := range v.edits {
		v.dense[n] = w
	}
	v.edits = nil
}

// Eval projects one hypothesis incrementally: the hypothesis writes its
// edits into a sparse overlay, projected work is BaseWork + Δ, and the
// projected span comes from the delta-aware critical-path DP seeded at the
// edited nodes. When the edit set spills or the dirty cone exceeds the
// fallback fraction, the evaluation completes on the exact full DP instead.
// A perfect cutoff at a depth whose regions contract exactly skips the
// overlay and runs on the contracted graph. The result is identical on
// every path (see the oracle tests), only the cost differs. The makespan
// model is unchanged: max(new span, observed makespan minus the removed
// work spread evenly over the cores); infinite-core hypotheses collapse to
// the span.
func (e *Engine) Eval(h Hypothesis) Projection {
	return e.eval(h, false)
}

// EvalFull is the oracle path: it materializes the full edited weight
// vector up front, recomputes work by summation and the span by the exact
// full critical-path DP — the evaluation strategy Eval had before sparse
// evaluation existed. The sparse path is tested against it bit for bit.
func (e *Engine) EvalFull(h Hypothesis) Projection {
	return e.eval(h, true)
}

func (e *Engine) eval(h Hypothesis, forceFull bool) Projection {
	sp := e.Obs.Child("whatif:eval")
	defer sp.End()

	if c, ok := h.(CollapseAtDepth); ok && !forceFull {
		if work, span, ok := e.cuts(nil).collapse(e, e.cutDepth(c.Depth)); ok {
			e.contractedEvals.Add(1)
			return e.project(h, work, span, false)
		}
	}

	n := e.G.NumNodes()
	spillAt := n / spillFraction
	if spillAt < spillMinEdits {
		spillAt = spillMinEdits
	}
	maxDirty := n / dirtyFraction
	if maxDirty < spillMinEdits {
		maxDirty = spillMinEdits
	}

	v := newOverlay(e.baseW, spillAt)
	v.alloc = e.getDense
	if forceFull {
		v.spill()
	}
	if z, ok := h.(ZeroInflation); ok && z.likelyDense(e) {
		v.spill()
	}
	inf := h.apply(e, v)

	var work, span profile.Time
	sparse := false
	if v.dense == nil {
		if s, ok := metrics.CriticalPathDelta(e.cpBase, v.edits, maxDirty); ok {
			span = s
			sparse = true
		} else {
			v.spill()
		}
	}
	if sparse {
		work = profile.Time(int64(e.BaseWork) + v.delta)
		e.sparseEvals.Add(1)
	} else {
		fsp := sp.Child("whatif:eval:fulldp")
		if forceFull {
			// The oracle recomputes work by summation; the incremental
			// BaseWork + Δ accounting is one of the things it checks.
			for _, w := range v.dense {
				work += w
			}
		} else {
			work = profile.Time(int64(e.BaseWork) + v.delta)
		}
		if forceFull {
			span, _ = metrics.CriticalPathOverPool(e.G, v.dense, nil)
		} else {
			dist := e.getDense()
			span = e.dag(nil).finish(v.dense, noCut, dist)
			e.putDense(dist)
		}
		fsp.End()
		e.fullEvals.Add(1)
		if !forceFull {
			e.fallbackEvals.Add(1)
		}
	}
	if v.dense != nil {
		e.putDense(v.dense)
		v.dense = nil
	}
	return e.project(h, work, span, inf)
}

// project completes a projection from the hypothesis's work and span.
func (e *Engine) project(h Hypothesis, work, span profile.Time, inf bool) Projection {
	cores := int64(e.Cores)
	if cores < 1 {
		cores = 1
	}
	proj := int64(e.BaseMakespan) - (int64(e.BaseWork)-int64(work))/cores
	if inf {
		proj = int64(span)
	}
	if proj < int64(span) {
		proj = int64(span)
	}
	if proj < 1 {
		proj = 1
	}

	p := Projection{
		Label:        h.Label(),
		Approximate:  h.Approximate(),
		Work:         work,
		Span:         span,
		Makespan:     profile.Time(proj),
		BaseWork:     e.BaseWork,
		BaseSpan:     e.BaseSpan,
		BaseMakespan: e.BaseMakespan,
	}
	p.Speedup = float64(e.BaseMakespan) / float64(p.Makespan)
	p.AvgParallelism = float64(work) / float64(p.Makespan)
	return p
}

// EvalAll evaluates independent hypotheses across the pool (nil or
// single-worker pools run serially) and returns projections in hypothesis
// order — never completion order — so output is deterministic at every
// parallelism level. The perfect-cutoff family is one job, issued first:
// it builds the index its members share, and the other candidates overlap
// it.
func (e *Engine) EvalAll(pool *runpool.Runner, hs []Hypothesis) []Projection {
	var family []int
	var jobs [][]int
	for i, h := range hs {
		if _, ok := h.(CollapseAtDepth); ok {
			family = append(family, i)
		} else {
			jobs = append(jobs, []int{i})
		}
	}
	if family != nil {
		jobs = append([][]int{family}, jobs...)
	}
	out := make([]Projection, len(hs))
	runpool.Map(pool, len(jobs), func(j int) (struct{}, error) {
		if j == 0 && family != nil {
			e.cuts(pool) // the family's index, built across the pool
		}
		for _, i := range jobs[j] {
			out[i] = e.Eval(hs[i])
		}
		return struct{}{}, nil
	})
	return out
}

// subtreeOf returns a predicate over owner slots: whether the slot's task
// lies in the spawn subtree rooted at slot root (inclusive). Answers are
// memoized per slot, so a pass over every node costs one parent walk per
// task, not per node.
func (e *Engine) subtreeOf(root int32) func(si int32) bool {
	const unknown, in, out = 0, 1, 2
	state := make([]int8, len(e.own.Parent))
	if root >= 0 {
		state[root] = in
	}
	return func(si int32) bool {
		cur := si
		for cur >= 0 && state[cur] == unknown {
			cur = e.own.Parent[cur]
		}
		verdict := int8(out)
		if cur >= 0 {
			verdict = state[cur]
		}
		for cur = si; cur >= 0 && state[cur] == unknown; cur = e.own.Parent[cur] {
			state[cur] = verdict
		}
		return verdict == in
	}
}

// ScaleGrain scales the execution weight of one grain — or its whole spawn
// subtree — by Factor, modelling "optimize this region by 1/Factor×"
// (TASKPROF's classic what-if). Overhead nodes are untouched.
type ScaleGrain struct {
	Grain   profile.GrainID
	Factor  float64
	Subtree bool
}

// Label implements Hypothesis.
func (h ScaleGrain) Label() string {
	if h.Subtree {
		return fmt.Sprintf("scale subtree %s x%.2f", h.Grain, h.Factor)
	}
	return fmt.Sprintf("scale %s x%.2f", h.Grain, h.Factor)
}

// Approximate implements Hypothesis: pure weight algebra is exact.
func (h ScaleGrain) Approximate() bool { return false }

func (h ScaleGrain) apply(e *Engine, v *weightOverlay) bool {
	g := e.G
	num := g.LookupGrain(h.Grain)
	if num < 0 {
		return false
	}
	// A subtree is the tasks below the grain: a fragment belongs to it
	// through its own task's slot, a chunk only by being the grain itself.
	inSubtree := func(int32) bool { return false }
	if h.Subtree {
		inSubtree = e.subtreeOf(e.own.Slot(num))
	}
	for n := core.NodeID(0); n < core.NodeID(g.NumNodes()); n++ {
		k := g.Kind(n)
		if k != core.NodeFragment && k != core.NodeChunk {
			continue
		}
		if g.GrainNum(n) == num || (k == core.NodeFragment && inSubtree(e.own.Of[n])) {
			v.Set(n, profile.Time(float64(v.At(n))*h.Factor+0.5))
		}
	}
	return false
}

// ZeroInflation removes the measured work-inflation component of one grain:
// its execution weight is divided by its work deviation (parallel exec time
// over single-core exec time), projecting the grain running at its 1-core
// speed — the separation of work inflation from parallelism loss that Acar
// et al. argue for. Requires a report computed against a baseline run;
// grains without a deviation above 1 are untouched.
type ZeroInflation struct {
	Grain profile.GrainID
	// All de-inflates every grain in the report instead of just Grain.
	All bool
}

// Label implements Hypothesis.
func (h ZeroInflation) Label() string {
	if h.All {
		return "de-inflate all grains"
	}
	return fmt.Sprintf("de-inflate %s", h.Grain)
}

// Approximate implements Hypothesis: deviation-scaled weights are exact
// with respect to the measured baseline.
func (h ZeroInflation) Approximate() bool { return false }

// likelyDense reports that whole-report de-inflation on a large graph edits
// most weighted nodes, so evaluation materializes the dense vector up front
// instead of churning the sparse map until it spills; single-grain
// de-inflation stays sparse. Purely a cost hint: a wrong guess costs time,
// never correctness.
func (h ZeroInflation) likelyDense(e *Engine) bool {
	return h.All && e.G.NumNodes() > 8*spillMinEdits
}

func (h ZeroInflation) apply(e *Engine, v *weightOverlay) bool {
	if e.Rep == nil {
		return false
	}
	g := e.G
	only := int32(-1)
	if !h.All {
		if only = g.LookupGrain(h.Grain); only < 0 {
			return false
		}
	}
	for n := core.NodeID(0); n < core.NodeID(g.NumNodes()); n++ {
		if k := g.Kind(n); k != core.NodeFragment && k != core.NodeChunk {
			continue
		}
		num := g.GrainNum(n)
		if !h.All && num != only {
			continue
		}
		if int(num) < len(e.deviation) && e.deviation[num] > 0 {
			v.Set(n, profile.Time(float64(v.At(n))/e.deviation[num]+0.5))
		}
	}
	return false
}

// InfiniteCores lifts the core count to infinity: the projected makespan is
// the critical path itself — the upper bound on what any scheduling fix can
// achieve without reducing work or span.
type InfiniteCores struct{}

// Label implements Hypothesis.
func (InfiniteCores) Label() string { return "infinite cores (span bound)" }

// Approximate implements Hypothesis.
func (InfiniteCores) Approximate() bool { return false }

func (InfiniteCores) apply(e *Engine, v *weightOverlay) bool { return true }

// CollapseSubtree models a perfect cutoff at one task: the entire spawn
// subtree below Root executes inline in Root — all fork/join/book-keeping
// overhead inside the subtree disappears, and every descendant's execution
// weight is serialized into Root's first fragment. Loops executed by
// subtree tasks serialize too (their chunks' work moves to Root). The
// projection trades lost parallelism (longer span) against saved overhead
// (less work); for broken cutoffs spawning tiny grains the overhead wins.
type CollapseSubtree struct {
	Root profile.GrainID
}

// Label implements Hypothesis.
func (h CollapseSubtree) Label() string { return fmt.Sprintf("perfect cutoff at %s", h.Root) }

// Approximate implements Hypothesis: serialization changes structure.
func (h CollapseSubtree) Approximate() bool { return true }

func (h CollapseSubtree) apply(e *Engine, v *weightOverlay) bool {
	// A root that owns no slot has no nodes and no descendants with nodes:
	// nothing to collapse. One without an entry fragment keeps its subtree.
	root := e.own.Slot(e.G.LookupGrain(h.Root))
	if root < 0 || e.ownerEntry[root] < 0 {
		return false
	}
	entry, inSubtree := e.ownerEntry[root], e.subtreeOf(root)
	collapseInto(e, v, e.own.Depth[root], func(si int32) int32 {
		if inSubtree(si) {
			return entry
		}
		return -1
	})
	return false
}

// CollapseAtDepth models raising the task cutoff to spawn-tree depth Depth:
// every task at that depth absorbs its subtree serially, exactly as
// CollapseSubtree does per root. Depth 0 is the fully-serial hypothesis.
type CollapseAtDepth struct {
	Depth int
}

// Label implements Hypothesis.
func (h CollapseAtDepth) Label() string { return fmt.Sprintf("perfect cutoff at depth %d", h.Depth) }

// Approximate implements Hypothesis.
func (h CollapseAtDepth) Approximate() bool { return true }

func (h CollapseAtDepth) apply(e *Engine, v *weightOverlay) bool {
	d := e.cutDepth(h.Depth)
	rootEntry := newRootEntryCache(len(e.ownerEntry))
	var resolve func(si int32) int32
	resolve = func(si int32) int32 {
		if r := rootEntry[si]; r != entryUnresolved {
			return r
		}
		r := int32(-1)
		switch dep := e.own.Depth[si]; {
		case dep < d:
			// Above the cutoff, or not on a task path at all: untouched.
		case dep == d:
			r = e.ownerEntry[si]
		default:
			// Strict descendant: its root is its ancestor's root. The parent
			// closure guarantees the chain up to depth d exists.
			if p := e.own.Parent[si]; p >= 0 {
				r = resolve(p)
			}
		}
		rootEntry[si] = r
		return r
	}
	collapseInto(e, v, d, resolve)
	return false
}

// cutDepth narrows a cutoff depth to the slot tables' int32. Every depth
// past the deepest task collapses nothing, and neither does one below -1
// (the depth of owners that are no task), so each range maps to one value.
func (e *Engine) cutDepth(depth int) int32 {
	switch {
	case depth > e.maxTaskDepth:
		return int32(e.maxTaskDepth) + 1
	case depth < -1:
		return -2
	}
	return int32(depth)
}

// entryUnresolved marks a rootEntry cache slot whose collapse root has not
// been resolved yet; resolved slots hold the root's entry node or -1 for
// "leave this owner's nodes untouched" (outside every collapsed region, or
// the region's root has no entry fragment to absorb the work).
const entryUnresolved = int32(-2)

func newRootEntryCache(n int) []int32 {
	c := make([]int32, n)
	for i := range c {
		c[i] = entryUnresolved
	}
	return c
}

// collapseInto is the shared serialization machinery behind both collapse
// hypotheses: rootEntryOf resolves an owner-task slot to the entry fragment
// absorbing its collapsed region (-1: untouched). Within a region, fork/
// join/book-keeping weights vanish; fragment weights of strict descendants
// — recognized by depth, since inside a region only the root itself sits at
// rootDepth — and chunk weights of owned loops accumulate into the entry.
// Roots without an entry keep their subtree unmodified rather than dropping
// its work (rootEntryOf already returns -1 for them).
//
// One pass over the node table with nothing but array reads per node, plus
// a dense moved-work accumulator indexed by entry node: the overlay read of
// a node precedes its own write, so moved sums see baseline weights exactly
// as a one-shot vector edit would.
func collapseInto(e *Engine, v *weightOverlay, rootDepth int32, rootEntryOf func(si int32) int32) {
	g := e.G
	numNodes := core.NodeID(g.NumNodes())
	moved := e.getDense()
	clear(moved)
	defer e.putDense(moved)
	any := false
	for n := core.NodeID(0); n < numNodes; n++ {
		si := e.own.Of[n]
		entry := rootEntryOf(si)
		if entry < 0 {
			continue
		}
		switch g.Kind(n) {
		case core.NodeFork, core.NodeJoin, core.NodeBookkeep:
			// Parallelization overhead inside the collapsed region vanishes.
			v.Set(n, 0)
		case core.NodeFragment:
			if e.own.Depth[si] != rootDepth {
				moved[entry] += v.At(n)
				v.Set(n, 0)
				any = true
			}
		case core.NodeChunk:
			moved[entry] += v.At(n)
			v.Set(n, 0)
			any = true
		}
	}
	if !any {
		return
	}
	for n := core.NodeID(0); n < numNodes; n++ {
		if m := moved[n]; m != 0 {
			v.Set(n, v.At(n)+m)
		}
	}
}
