// Package metrics derives the paper's per-grain performance metrics
// (§3.2) from a profiled trace and its grain graph: critical path, parallel
// benefit, load balance, work deviation, instantaneous parallelism, scatter
// and memory-hierarchy utilization.
package metrics

import (
	"math"
	"sort"

	"graingraph/internal/core"
	"graingraph/internal/obs"
	"graingraph/internal/profile"
	"graingraph/internal/runpool"
)

// metricGrain is the fixed chunk size for the per-grain metric kernels.
// Chunk boundaries depend only on the grain count, never the worker count,
// so every kernel below is byte-identical at every parallelism level.
const metricGrain = 1024

// GrainMetrics bundles the derived metrics of one grain.
type GrainMetrics struct {
	Grain *profile.Grain

	// ParallelBenefit is execution time divided by parallelization cost
	// (creation + share of the parent's synchronization overhead; chunks use
	// book-keeping cost). +Inf when the grain has no parallelization cost
	// (the root). Problematic below 1.
	ParallelBenefit float64

	// WorkDeviation is execution time on this run divided by the same
	// grain's execution time on a single core; 0 when no baseline grain
	// matched. Problematic ("work inflation") above threshold.
	WorkDeviation float64

	// InstParallelism is the smallest instantaneous parallelism among the
	// intervals overlapping this grain (optimistic flavour unless
	// configured otherwise). Problematic below the core count.
	InstParallelism int

	// Scatter is the median pairwise core distance among the grain's
	// sibling set; 0 for only children, ScatterUnknown when the grain's
	// core (or all but one sibling core) went unrecorded. Problematic
	// beyond a socket.
	Scatter int

	// Utilization is compute cycles per stall cycle. Problematic below 2.
	Utilization float64
}

// ScatterUnknown is the sentinel Scatter value for grains whose placement
// could not be measured: the grain's own core was unrecorded (Core < 0), or
// its sibling set has fewer than two recorded cores. It is distinct from 0
// ("perfectly packed") and is skipped by the highlight pass.
const ScatterUnknown = -1

// IPFlavor selects the instantaneous-parallelism counting rule.
type IPFlavor int

const (
	// IPOptimistic counts grains with any overlap of the interval.
	IPOptimistic IPFlavor = iota
	// IPConservative counts only grains executing for the full interval.
	IPConservative
)

// Options tunes the analysis.
type Options struct {
	// Interval is the instantaneous-parallelism interval size in cycles;
	// 0 selects the median grain length (the paper's default choice).
	Interval profile.Time
	// Flavor selects optimistic or conservative counting.
	Flavor IPFlavor
	// MaxIntervals caps the timeline resolution (default 4096).
	MaxIntervals int
	// ScatterSample caps the sibling-set size used for pairwise distances
	// (default 2048; larger sets are subsampled deterministically).
	ScatterSample int
	// Pool, when non-nil with more than one worker, runs the per-grain
	// metric kernels (rows, work deviation, scatter) and the critical-path
	// DP data-parallel across its workers. Output is byte-identical at
	// every worker count — nil is simply the serial schedule.
	Pool *runpool.Runner
	// Span, when non-nil, is the parent phase span each metric kernel
	// reports under (internal/obs): one child span per kernel, in the
	// fixed serial order the kernels run. Nil disables phase observation
	// at zero cost.
	Span *obs.Span
}

func (o Options) withDefaults() Options {
	if o.MaxIntervals == 0 {
		o.MaxIntervals = 4096
	}
	if o.ScatterSample == 0 {
		o.ScatterSample = 2048
	}
	return o
}

// Report is the full derived-metric set for one trace.
type Report struct {
	Trace  *profile.Trace
	Grains []*GrainMetrics

	// CriticalPathLength is the weight of the heaviest path through the
	// grain graph; CriticalNodes lists its nodes in order.
	CriticalPathLength profile.Time
	CriticalNodes      []core.NodeID

	// Timeline is the instantaneous parallelism per interval;
	// IntervalSize is the interval width used.
	Timeline     []int
	IntervalSize profile.Time

	// LoopLoadBalance maps each loop instance to its load-balance metric;
	// TaskLoadBalance is the program-level generalization over task grains.
	LoopLoadBalance map[profile.LoopID]float64
	TaskLoadBalance float64

	// rowOf maps a grain number of Trace to the grain's row in Grains (the
	// rows are in start order, not number order). Nil for a report put
	// together by hand.
	rowOf []int32
}

// RowIndex returns the position in Grains of grain number num's row, or -1.
func (r *Report) RowIndex(num int32) int {
	if num < 0 || int(num) >= len(r.rowOf) {
		return -1
	}
	return int(r.rowOf[num])
}

// Get returns the metrics row for a grain ID, or nil.
func (r *Report) Get(id profile.GrainID) *GrainMetrics {
	if i := r.RowIndexOf(id); i >= 0 {
		return r.Grains[i]
	}
	return nil
}

// RowIndexOf returns the position in Grains of the row of the grain with
// the given ID, or -1. A report put together by hand has no number index
// and is scanned.
func (r *Report) RowIndexOf(id profile.GrainID) int {
	if r.rowOf != nil {
		return r.RowIndex(r.Trace.Lookup(id))
	}
	for i, gm := range r.Grains {
		if gm.Grain.ID == id {
			return i
		}
	}
	return -1
}

// Analyze derives every metric for tr. The grain graph g must have been
// built from tr (pass nil to have Analyze build it). baseline, if non-nil,
// is a single-core trace of the same program used for work deviation.
func Analyze(tr *profile.Trace, g *core.Graph, baseline *profile.Trace, opts Options) *Report {
	opts = opts.withDefaults()
	if g == nil {
		sp := opts.Span.Child("build")
		g = core.Build(tr)
		sp.End()
	}
	grains := tr.Grains()
	rep := &Report{
		Trace:           tr,
		LoopLoadBalance: make(map[profile.LoopID]float64),
		rowOf:           make([]int32, len(grains)),
	}

	// Per-grain local metrics (parallel benefit, memory-hierarchy
	// utilization): every row is independent, so the rows — one backing
	// array — and the number → row index fill across the pool.
	sp := opts.Span.Child("metric:rows")
	rows := make([]GrainMetrics, len(grains))
	rep.Grains = make([]*GrainMetrics, len(grains))
	runpool.ParallelFor(opts.Pool, len(grains), metricGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			gr := grains[i]
			rows[i] = GrainMetrics{
				Grain:           gr,
				ParallelBenefit: parallelBenefit(gr),
				Utilization:     gr.Counters.Utilization(),
			}
			rep.Grains[i] = &rows[i]
			rep.rowOf[gr.Num] = int32(i)
		}
	})
	sp.End()

	// Work deviation against the single-core baseline. Grain IDs are what
	// the two runs share — the same program numbers its grains differently
	// under another schedule — so each grain is looked up by ID in the
	// baseline's numbering; the lookups are read-only and shard.
	if baseline != nil {
		sp := opts.Span.Child("metric:workdev")
		bnb := baseline.Numbering()
		runpool.ParallelFor(opts.Pool, len(rep.Grains), metricGrain, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				gm := rep.Grains[i]
				bn := int(bnb.Lookup(gm.Grain.ID))
				if bn < 0 {
					continue
				}
				var b profile.Time
				if bn < bnb.Tasks {
					b = baseline.Tasks[bn].ExecTime()
				} else {
					b = baseline.Chunks[bn-bnb.Tasks].Duration()
				}
				if b > 0 {
					gm.WorkDeviation = float64(gm.Grain.Exec) / float64(b)
				}
			}
		})
		sp.End()
	}

	// Critical path on the grain graph: level-synchronous parallel DP over
	// the topological-level index. The index (and the CSRs it needs) builds
	// lazily on first touch; forcing it under its own span separates index
	// construction cost from the relaxation itself.
	sp = opts.Span.Child("metric:critical")
	lv := sp.Child("levels")
	g.NumLevels()
	g.In(0)
	lv.End()
	rep.CriticalPathLength, rep.CriticalNodes = CriticalPathPool(g, opts.Pool)
	sp.End()

	// Instantaneous parallelism.
	sp = opts.Span.Child("metric:parallelism")
	interval := opts.Interval
	if interval == 0 {
		interval = MedianGrainLength(grains)
	}
	rep.IntervalSize, rep.Timeline = instParallelism(tr, rep, interval, opts)
	sp.End()

	// Scatter per sibling set.
	sp = opts.Span.Child("metric:scatter")
	scatter(grains, rep, opts)
	sp.End()

	// Load balance.
	sp = opts.Span.Child("metric:loadbalance")
	for _, l := range tr.Loops {
		rep.LoopLoadBalance[l.ID] = LoopLoadBalance(tr, l.ID)
	}
	rep.TaskLoadBalance = TaskLoadBalance(tr)
	sp.End()

	return rep
}

// parallelBenefit implements the paper's definition: grain execution time
// over the parallelization cost its parent paid for it.
func parallelBenefit(g *profile.Grain) float64 {
	cost := g.ParallelizationCost()
	if cost == 0 {
		return math.Inf(1)
	}
	return float64(g.Exec) / float64(cost)
}

// MedianGrainLength returns the median execution time of the grains — the
// paper's default instantaneous-parallelism interval.
func MedianGrainLength(grains []*profile.Grain) profile.Time {
	if len(grains) == 0 {
		return 1
	}
	ls := make([]profile.Time, 0, len(grains))
	for _, g := range grains {
		if g.Exec > 0 {
			ls = append(ls, g.Exec)
		}
	}
	if len(ls) == 0 {
		return 1
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	return ls[len(ls)/2]
}

// MinGrainLength returns the smallest positive grain execution time — the
// paper's alternative interval choice.
func MinGrainLength(grains []*profile.Grain) profile.Time {
	min := profile.Time(0)
	for _, g := range grains {
		if g.Exec > 0 && (min == 0 || g.Exec < min) {
			min = g.Exec
		}
	}
	if min == 0 {
		return 1
	}
	return min
}
