// Package highlight applies the paper's problem thresholds (§3.3) to a
// metric report: grains whose derived metrics cross a threshold are flagged
// as likely problems, given a severity in [0,1], and summarized. Views
// colour problematic grains on a red-to-yellow gradient and dim everything
// else, exactly like the paper's figures.
package highlight

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"graingraph/internal/metrics"
	"graingraph/internal/obs"
	"graingraph/internal/profile"
	"graingraph/internal/query"
	"graingraph/internal/runpool"
)

// Problem is a bitmask of per-grain problem conditions.
type Problem uint

const (
	// LowParallelBenefit: parallel benefit below 1 — the grain does not pay
	// for its own parallelization; it should run serially (inline/cutoff).
	LowParallelBenefit Problem = 1 << iota
	// WorkInflation: work deviation above threshold — the grain takes
	// longer on the parallel run than on one core (NUMA/coherence losses).
	WorkInflation
	// LowParallelism: instantaneous parallelism below the core count while
	// this grain executes — cores idle for lack of work.
	LowParallelism
	// HighScatter: sibling grains executed farther apart than one socket.
	HighScatter
	// PoorUtilization: memory-hierarchy utilization below 2 — the grain
	// stalls on memory more than it computes.
	PoorUtilization
)

// String names a single problem bit (or a combination, '+'-joined).
func (p Problem) String() string {
	if p == 0 {
		return "none"
	}
	names := []struct {
		bit  Problem
		name string
	}{
		{LowParallelBenefit, "low-parallel-benefit"},
		{WorkInflation, "work-inflation"},
		{LowParallelism, "low-parallelism"},
		{HighScatter, "high-scatter"},
		{PoorUtilization, "poor-memory-hierarchy-utilization"},
	}
	out := ""
	for _, n := range names {
		if p&n.bit != 0 {
			if out != "" {
				out += "+"
			}
			out += n.name
		}
	}
	return out
}

// AllProblems lists the individual problem bits in display order.
var AllProblems = []Problem{
	LowParallelBenefit, WorkInflation, LowParallelism, HighScatter, PoorUtilization,
}

// Thresholds are the problem cut-offs. The paper's defaults: memory
// hierarchy utilization < 2, parallel benefit < 1, load balance > 1, work
// deviation > 2, instantaneous parallelism < cores used, scatter > cores
// per socket. Programmers can refine them (the paper lowers work deviation
// to 1.2 for 359.botsspar).
type Thresholds struct {
	ParallelBenefitMin float64
	WorkDeviationMax   float64
	ParallelismMin     int
	ScatterMax         int
	UtilizationMin     float64
	LoadBalanceMax     float64
}

// Defaults returns the paper's default thresholds for a run on the given
// core count and socket width.
func Defaults(cores, coresPerSocket int) Thresholds {
	return Thresholds{
		ParallelBenefitMin: 1,
		WorkDeviationMax:   2,
		ParallelismMin:     cores,
		ScatterMax:         coresPerSocket,
		UtilizationMin:     2,
		LoadBalanceMax:     1,
	}
}

// Assessment is the evaluation of a whole report against thresholds: one
// problem mask per report row, in report-row order. A grain's assessment
// is found by number (Row) or ID (Get) as a row index into Mask and into
// the report's columns.
type Assessment struct {
	Thresholds Thresholds
	Report     *metrics.Report
	Mask       []Problem
}

// evaluateGrain is the fixed chunk size for the threshold scan.
const evaluateGrain = 1024

// EvaluateWith flags every grain in rep against th, with the threshold
// scan sharded across pool: each mask depends only on its own report row,
// so the masks fill pre-sized slots in parallel (fixed chunk boundaries,
// byte-identical at every worker count). A nil pool is the strict serial
// schedule.
func EvaluateWith(rep *metrics.Report, th Thresholds, pool *runpool.Runner) *Assessment {
	return EvaluateObs(rep, th, pool, nil)
}

// fnum formats a threshold as an exact round-trip query literal.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ProblemQuery returns the query-grammar predicate defining problem p over
// the metric table (see MetricTable) at the given thresholds. The
// threshold scan itself evaluates exactly these expressions, so a
// `grainview -query "filter <predicate>"` selects precisely the grains the
// highlight pass flags.
func ProblemQuery(p Problem, th Thresholds) string {
	switch p {
	case LowParallelBenefit:
		return "benefit < " + fnum(th.ParallelBenefitMin)
	case WorkInflation:
		return "workdev > " + fnum(th.WorkDeviationMax)
	case LowParallelism:
		return "parallelism < " + strconv.Itoa(th.ParallelismMin)
	case HighScatter:
		// ScatterUnknown (-1, unrecorded cores) is not evidence of a
		// problem: the sentinel is excluded, not treated as "packed".
		return "scatter != " + strconv.Itoa(metrics.ScatterUnknown) +
			" && scatter > " + strconv.Itoa(th.ScatterMax)
	case PoorUtilization:
		// Grains that never stall are fine regardless of the ratio; grains
		// with no memory activity are not memory problems either.
		return "stall > 0 && util < " + fnum(th.UtilizationMin)
	default:
		return "benefit < 0 && benefit > 0" // unknown problem: matches nothing
	}
}

// MetricTable exposes rep's per-grain metric columns as a query table:
// benefit, workdev, parallelism, scatter, util, stall, one row per grain
// in report order. The columns are the report's own slices, adopted
// without copying. This is the table the threshold scan runs its problem
// predicates over; expt's "from grains" table adopts the same columns.
func MetricTable(rep *metrics.Report) *query.Table {
	return query.NewTable(rep.Len()).
		AddFloat("benefit", rep.Benefit).
		AddFloat("workdev", rep.WorkDev).
		AddInt("parallelism", rep.Parallelism).
		AddInt("scatter", rep.Scatter).
		AddFloat("util", rep.Util).
		AddInt("stall", rep.Stall)
}

// EvaluateObs is EvaluateWith reporting its threshold scan as a phase span
// under parent (internal/obs). A nil parent is exactly EvaluateWith.
//
// The scan executes through the query engine: the metric columns form a
// query table (MetricTable), each problem's definition compiles from its
// ProblemQuery predicate, and the five predicates evaluate as vectorized
// chunked kernels before one final chunked pass folds the match vectors
// into the masks. Chunk boundaries depend only on the grain count, so the
// assessment is byte-identical at every worker count — and identical to
// the hand-rolled per-grain scan this replaced.
func EvaluateObs(rep *metrics.Report, th Thresholds, pool *runpool.Runner, parent *obs.Span) *Assessment {
	sp := parent.Child("highlight")
	defer sp.End()
	n := rep.Len()
	a := &Assessment{Thresholds: th, Report: rep, Mask: make([]Problem, n)}
	t := MetricTable(rep)
	// No artifact reaches either panic: the predicates are ProblemQuery's,
	// whose thresholds are constants except ParallelismMin (a core count
	// Trace.Validate bounds to [0, MaxInt32]) and the caller's
	// WorkDeviationMax. TestProblemPredicatesBind parses and binds them
	// all over MetricTable across that range.
	match := make([][]bool, len(AllProblems))
	for pi, p := range AllProblems {
		e, err := query.ParseExpr(ProblemQuery(p, th))
		if err != nil {
			panic("highlight: bad problem predicate: " + err.Error())
		}
		match[pi] = make([]bool, n)
		if err := e.EvalBool(t, pool, match[pi]); err != nil {
			panic("highlight: problem predicate failed to bind: " + err.Error())
		}
	}
	runpool.ParallelFor(pool, n, evaluateGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			for pi, p := range AllProblems {
				if match[pi][i] {
					a.Mask[i] |= p
				}
			}
		}
	})
	return a
}

// Row returns the row of grain number num (a number of the report's
// trace), or -1.
func (a *Assessment) Row(num int32) int { return a.Report.RowIndex(num) }

// Get returns the row of the grain with the given ID, or -1.
func (a *Assessment) Get(id profile.GrainID) int { return a.Report.RowIndexOf(id) }

// Affected returns the fraction (0..1) of grains flagged with problem p —
// the paper's "Affected grains (%)" (Sort's optimization table).
func (a *Assessment) Affected(p Problem) float64 {
	if len(a.Mask) == 0 {
		return 0
	}
	return float64(a.Count(p)) / float64(len(a.Mask))
}

// Count returns how many grains carry problem p.
func (a *Assessment) Count(p Problem) int {
	n := 0
	for _, m := range a.Mask {
		if m&p != 0 {
			n++
		}
	}
	return n
}

// Severity maps a row's metric distance past the threshold into [0,1]
// (1 = worst) for the given problem view; ok=false when the row's grain is
// not problematic in this view.
func (a *Assessment) Severity(row int, p Problem) (float64, bool) {
	if a.Mask[row]&p == 0 {
		return 0, false
	}
	th := a.Thresholds
	rep := a.Report
	switch p {
	case LowParallelBenefit:
		// 0 benefit = severity 1; at threshold = 0.
		return clamp01(1 - rep.Benefit[row]/th.ParallelBenefitMin), true
	case WorkInflation:
		// Saturates at 3x the threshold.
		return clamp01((rep.WorkDev[row] - th.WorkDeviationMax) / (2 * th.WorkDeviationMax)), true
	case LowParallelism:
		return clamp01(1 - float64(rep.Parallelism[row])/float64(th.ParallelismMin)), true
	case HighScatter:
		return clamp01(float64(rep.Scatter[row]-int64(th.ScatterMax)) / float64(3*th.ScatterMax)), true
	case PoorUtilization:
		return clamp01(1 - rep.Util[row]/th.UtilizationMin), true
	default:
		return 0, false
	}
}

func clamp01(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// HeatColor renders severity on the paper's red-to-yellow linear gradient
// (red = severity 1) as a #rrggbb hex string.
func HeatColor(severity float64) string {
	s := clamp01(severity)
	g := int(255 * (1 - s))
	return fmt.Sprintf("#ff%02x00", g)
}

// DimColor is the colour of non-problematic (dimmed) graph elements.
const DimColor = "#d9d9d9"

// Summary is a printable overview of an assessment.
type Summary struct {
	Program     string
	Cores       int
	TotalGrains int
	Makespan    profile.Time
	CriticalLen profile.Time
	Rows        []SummaryRow
	// WorstLoopLB is the worst loop load balance and its loop ID.
	WorstLoopLB     float64
	WorstLoopLBLoop profile.LoopID
}

// SummaryRow is one problem's aggregate.
type SummaryRow struct {
	Problem  Problem
	Count    int
	Affected float64 // fraction 0..1
}

// Summarize aggregates the assessment into a Summary.
func (a *Assessment) Summarize() Summary {
	s := Summary{
		Program:     a.Report.Trace.Program,
		Cores:       a.Report.Trace.Cores,
		TotalGrains: len(a.Mask),
		Makespan:    a.Report.Trace.Makespan(),
		CriticalLen: a.Report.CriticalPathLength,
	}
	for _, p := range AllProblems {
		s.Rows = append(s.Rows, SummaryRow{Problem: p, Count: a.Count(p), Affected: a.Affected(p)})
	}
	// Map iteration order is random: break load-balance ties by the lower
	// loop ID so summaries are byte-stable across runs.
	for id, lb := range a.Report.LoopLoadBalance {
		if lb > s.WorstLoopLB || (lb == s.WorstLoopLB && lb > 0 && id < s.WorstLoopLBLoop) {
			s.WorstLoopLB = lb
			s.WorstLoopLBLoop = id
		}
	}
	return s
}

// TopOffenders returns the rows of the worst n grains for problem p,
// ranked by severity then execution time — the paper's "sorting task
// definitions by creation count and work inflation" workflow uses rankings
// like this.
//
// Selection is one bounded pass of query.TopK (the kernel behind the query
// grammar's topk verb) over every row, flagged rows above the rest: a
// problem like low-parallel-benefit can flag every grain of a million-grain
// report, and the pass keeps only the n survivors, computing a row's
// severity where it is compared.
func (a *Assessment) TopOffenders(p Problem, n int) []int {
	if n <= 0 {
		return nil
	}
	// Flagged rows first; among them higher severity, then longer
	// execution, then lower grain ID — a total order, so the bounded
	// selection returns exactly what a full sort-and-truncate would.
	rep := a.Report
	top := query.TopK(len(a.Mask), n, func(i, j int) bool {
		si, fi := a.Severity(i, p)
		sj, fj := a.Severity(j, p)
		switch {
		case fi != fj:
			return fi
		case !fi:
			return i < j
		case si != sj:
			return si > sj
		}
		if ei, ej := profile.Time(rep.Exec[i]), profile.Time(rep.Exec[j]); ei != ej {
			return ei > ej
		}
		return rep.ID(i) < rep.ID(j)
	})
	out := make([]int, 0, len(top))
	for _, r := range top {
		if a.Mask[r]&p == 0 {
			break // the unflagged rank last
		}
		out = append(out, int(r))
	}
	return out
}

// ByDefinition aggregates problem prevalence per source definition — the
// grouping Figure 7 uses ("FFT performance grouped by definition in source
// files").
type DefinitionStats struct {
	Loc        profile.SrcLoc
	Grains     int
	TotalExec  profile.Time
	Flagged    int     // grains with the problem
	Prevalence float64 // Flagged / Grains
}

// ByDefinition computes per-definition stats for problem p, sorted by total
// execution time (heaviest definition first).
func (a *Assessment) ByDefinition(p Problem) []DefinitionStats {
	// SrcLoc is comparable: group on the struct and render each distinct
	// definition once, for the tie-break, instead of once per grain.
	slot := map[profile.SrcLoc]int{}
	var out []DefinitionStats
	rep := a.Report
	for row, m := range a.Mask {
		loc := rep.Trace.GrainLoc(rep.Num[row])
		i, ok := slot[loc]
		if !ok {
			i = len(out)
			slot[loc] = i
			out = append(out, DefinitionStats{Loc: loc})
		}
		ds := &out[i]
		ds.Grains++
		ds.TotalExec += profile.Time(rep.Exec[row])
		if m&p != 0 {
			ds.Flagged++
		}
	}
	names := make([]string, len(out))
	order := make([]int, len(out))
	for i := range out {
		out[i].Prevalence = float64(out[i].Flagged) / float64(out[i].Grains)
		names[i] = out[i].Loc.String()
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := &out[order[i]], &out[order[j]]
		if di.TotalExec != dj.TotalExec {
			return di.TotalExec > dj.TotalExec
		}
		return names[order[i]] < names[order[j]]
	})
	sorted := make([]DefinitionStats, len(out))
	for i, o := range order {
		sorted[i] = out[o]
	}
	return sorted
}
