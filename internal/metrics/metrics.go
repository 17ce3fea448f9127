// Package metrics derives the paper's per-grain performance metrics
// (§3.2) from a profiled trace and its grain graph: critical path, parallel
// benefit, load balance, work deviation, instantaneous parallelism, scatter
// and memory-hierarchy utilization.
package metrics

import (
	"math"
	"slices"
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

// Report is the full derived-metric set for one trace. Its per-grain part
// is one table: a row per grain of Trace, ordered by start time (ties by
// grain ID). Num is each row's grain number — the grain's identity, span,
// core and counters are read from Trace by it — and every other per-grain
// column is parallel to Num and named like its "from grains" query
// column. The highlight pass and the query table adopt the metric columns
// as they are; nothing copies them. A report from Analyze also keeps the
// critical-path DP it ran, which holds the analysed graph and a distance
// column of 8 bytes per node, for the what-if engine to adopt.
type Report struct {
	Trace *profile.Trace

	Num []int32
	// Exec is the grain's execution time excluding suspension.
	Exec []int64
	// Benefit is the parallel benefit: execution time divided by
	// parallelization cost (creation + share of the parent's
	// synchronization overhead; chunks use book-keeping cost). +Inf when
	// the grain has no parallelization cost (the root). Problematic below 1.
	Benefit []float64
	// WorkDev is the work deviation: execution time on this run divided by
	// the same grain's execution time on a single core; 0 when no baseline
	// grain matched. Problematic ("work inflation") above threshold.
	WorkDev []float64
	// Parallelism is the smallest instantaneous parallelism among the
	// intervals overlapping the grain (optimistic flavour unless configured
	// otherwise). Problematic below the core count.
	Parallelism []int64
	// Scatter is the median pairwise core distance among the grain's
	// sibling set; 0 for only children, ScatterUnknown when the grain's
	// core (or all but one sibling core) went unrecorded. Problematic
	// beyond a socket.
	Scatter []int64
	// Util is the memory-hierarchy utilization, compute cycles per stall
	// cycle. Problematic below 2.
	Util []float64
	// Stall is the grain's stall cycles, which decide whether a low Util
	// is a memory problem at all.
	Stall []int64

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

	// rowOf inverts Num: the row of each grain number of Trace. Nil for a
	// report put together by hand, which RowIndex scans instead.
	rowOf []int32

	// cp is the critical-path DP Analyze ran on its graph; the what-if
	// engine adopts it (CriticalBaseline) instead of running a second one.
	cp *CPBaseline
}

// CriticalBaseline returns the critical-path DP state Analyze settled on
// g, or nil when the report was not analysed over g (a hand-built report,
// or another graph of the same trace).
func (r *Report) CriticalBaseline(g *core.Graph) *CPBaseline {
	if r.cp == nil || r.cp.g != g {
		return nil
	}
	return r.cp
}

// Len returns the number of rows.
func (r *Report) Len() int { return len(r.Num) }

// RowIndex returns the row of grain number num, or -1.
func (r *Report) RowIndex(num int32) int {
	if r.rowOf == nil {
		return slices.Index(r.Num, num)
	}
	if num < 0 || int(num) >= len(r.rowOf) {
		return -1
	}
	return int(r.rowOf[num])
}

// ID returns the ID of row's grain.
func (r *Report) ID(row int) profile.GrainID { return r.Trace.ID(r.Num[row]) }

// RowIndexOf returns the row of the grain with the given ID, or -1.
func (r *Report) RowIndexOf(id profile.GrainID) int {
	if n := r.Trace.Lookup(id); n >= 0 {
		return r.RowIndex(n)
	}
	return -1
}

// Analyze derives every metric for tr. The grain graph g must have been
// built from tr (pass nil to have Analyze build it). baseline, if non-nil,
// is a single-core trace of the same program used for work deviation.
func Analyze(tr *profile.Trace, g *core.Graph, baseline *profile.Trace, opts Options) *Report {
	if g == nil {
		sp := opts.Span.Child("build")
		g = core.Build(tr)
		sp.End()
	}
	// The row order and the report's columns.
	sp := opts.Span.Child("metric:order")
	num := startOrder(tr)
	n := len(num)
	rep := &Report{
		Trace:           tr,
		Num:             num,
		Exec:            make([]int64, n),
		Benefit:         make([]float64, n),
		WorkDev:         make([]float64, n),
		Parallelism:     make([]int64, n),
		Scatter:         make([]int64, n),
		Util:            make([]float64, n),
		Stall:           make([]int64, n),
		LoopLoadBalance: make(map[profile.LoopID]float64),
		rowOf:           make([]int32, n),
	}
	sp.End()

	// Per-grain local metrics (parallel benefit, memory-hierarchy
	// utilization, stalls): every row is independent, so the columns and the
	// number → row index fill across the pool.
	sp = opts.Span.Child("metric:rows")
	syncShare := tr.SyncShares()
	runpool.ParallelFor(opts.Pool, n, metricGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			gn := num[i]
			exec := tr.GrainExec(gn)
			rep.Exec[i] = int64(exec)
			rep.Benefit[i] = parallelBenefit(exec, tr.GrainCreateCost(gn)+syncShare[gn])
			c := tr.GrainCounters(gn)
			rep.Util[i] = c.Utilization()
			rep.Stall[i] = int64(c.Stall)
			rep.rowOf[gn] = int32(i)
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
		runpool.ParallelFor(opts.Pool, n, metricGrain, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				bn := bnb.Lookup(tr.ID(num[i]))
				if bn < 0 {
					continue
				}
				if b := baseline.GrainExec(bn); b > 0 {
					rep.WorkDev[i] = float64(profile.Time(rep.Exec[i])) / float64(b)
				}
			}
		})
		sp.End()
	}

	// Critical path on the grain graph: level-synchronous parallel DP over
	// the topological-level index, run once per analysis and kept on the
	// report for the what-if engine. The index (and the CSRs it needs)
	// builds lazily on first touch; forcing it under its own span separates
	// index construction cost from the relaxation itself.
	sp = opts.Span.Child("metric:critical")
	lv := sp.Child("levels")
	if g.NumNodes() > 0 { // an accepted trace may record no grain at all
		g.NumLevels()
		g.In(0)
	}
	lv.End()
	rep.cp = NewCPBaseline(g, nil, opts.Pool)
	rep.CriticalPathLength, rep.CriticalNodes = rep.cp.Span(), markCritical(rep.cp, opts.Pool)
	sp.End()

	// Instantaneous parallelism.
	sp = opts.Span.Child("metric:parallelism")
	interval := opts.Interval
	if interval == 0 {
		interval = MedianGrainLength(rep.Exec)
	}
	rep.IntervalSize, rep.Timeline = instParallelism(tr, rep, interval, opts)
	sp.End()

	// Scatter per sibling set.
	sp = opts.Span.Child("metric:scatter")
	scatter(rep, opts)
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

// startOrder returns every grain number of tr sorted by start time, ties
// broken by ID for determinism: the report's row order.
func startOrder(tr *profile.Trace) []int32 {
	nb := tr.Numbering()
	start := make([]profile.Time, nb.NumGrains())
	order := make([]int32, len(start))
	for n := range start {
		start[n], _ = tr.GrainSpan(int32(n))
		order[n] = int32(n)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if start[a] != start[b] {
			return start[a] < start[b]
		}
		return nb.IDs[a] < nb.IDs[b]
	})
	return order
}

// parallelBenefit implements the paper's definition: grain execution time
// over the parallelization cost its parent paid for it.
func parallelBenefit(exec, cost profile.Time) float64 {
	if cost == 0 {
		return math.Inf(1)
	}
	return float64(exec) / float64(cost)
}

// MedianGrainLength returns the median of the grain execution times exec
// — the paper's default instantaneous-parallelism interval.
func MedianGrainLength(exec []int64) profile.Time {
	ls := make([]profile.Time, 0, len(exec))
	for _, e := range exec {
		if e != 0 {
			ls = append(ls, profile.Time(e))
		}
	}
	if len(ls) == 0 {
		return 1
	}
	slices.Sort(ls)
	return ls[len(ls)/2]
}
