// Package expt is the experiment harness: one regenerator per table and
// figure in the paper's evaluation (§2, §4), each running the relevant
// workload on the simulated machine, deriving grain-graph metrics, and
// printing the same rows/series the paper reports.
//
// Absolute numbers differ from the paper's (their substrate was a real
// 48-core Opteron; ours is a calibrated simulator) but the shapes hold:
// who wins, directions of change, and where the crossovers fall.
package expt

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"graingraph/internal/core"
	"graingraph/internal/export"
	"graingraph/internal/highlight"
	"graingraph/internal/lod"
	"graingraph/internal/machine"
	"graingraph/internal/metrics"
	"graingraph/internal/obs"
	"graingraph/internal/profile"
	"graingraph/internal/query"
	"graingraph/internal/rts"
	"graingraph/internal/runpool"
	"graingraph/internal/timeline"
	"graingraph/internal/workloads"
)

// analyzeNS accumulates wall time spent in the analysis phase (graph build,
// metric derivation, highlighting) across all runs since process start.
// grainbench reports it per figure, as a delta, so analysis cost is visible
// separately from simulation cost.
var analyzeNS atomic.Int64

// AnalyzeStats returns the accumulated analysis-phase wall time.
func AnalyzeStats() time.Duration { return time.Duration(analyzeNS.Load()) }

// analyze derives the full metric set of a recorded run: graph build,
// metric derivation and highlighting, with the per-grain kernels running
// on pool (nil selects the shared experiment pool, the CLI default).
// baseline may be nil, in which case work deviation is unavailable.
// cfg.Cores <= 0 takes the core count from the trace. It feeds the
// analyze-phase timer and, when self-observability is enabled, reports one
// phase-span tree per analysis — rooted under parent when the caller
// threaded one through, or as its own root (the batch case, where analyses
// run on pool workers).
func analyze(pool *runpool.Runner, tr *profile.Trace, baseline *profile.Trace, cfg Config, parent *obs.Span) *Result {
	start := time.Now()
	defer func() { analyzeNS.Add(int64(time.Since(start))) }()
	if pool == nil {
		pool = currentPool()
	}
	cores := cfg.Cores
	if cores <= 0 {
		cores = tr.Cores
	}
	sp := obs.Under(SelfProfiler(), parent, "analyze:"+tr.Program)
	defer sp.End()

	// Number the grains: the one pass of an analysis that hashes grain IDs
	// (a live trace's task and chunk IDs). A decoded trace paid for it at
	// ingest (ggp reports it there) and this is a no-op.
	isp := sp.Child("index:grains")
	tr.Numbering()
	isp.End()

	bsp := sp.Child("build")
	g := core.Build(tr)
	bsp.End()
	rep := metrics.Analyze(tr, g, baseline, metrics.Options{Pool: pool, Span: sp})
	th := highlight.Defaults(cores, 12)
	if cfg.WorkDeviationMax > 0 {
		th.WorkDeviationMax = cfg.WorkDeviationMax
	}
	a := highlight.EvaluateObs(rep, th, pool, sp)
	return &Result{Trace: tr, Graph: g, Report: rep, Assessment: a}
}

// LoggedRun is one entry of a run log: a run's label and its profile. A
// fully analyzed run also keeps its graph, which Critical reads.
type LoggedRun struct {
	Label string
	Trace *profile.Trace
	graph *core.Graph
}

// Critical returns the run's critical-path grain set, by grain number, or
// nil for a run that was not analyzed (a baseline or a makespan run). It
// is derived on each call, so a log entry costs nothing until a trace
// export reads it.
func (r *LoggedRun) Critical() []bool {
	if r.graph == nil {
		return nil
	}
	return r.graph.CriticalGrains()
}

// RunLog is what a run or a figure returns beside its data: every run it
// requested — simulated, memoized or replayed from an artifact — in
// request order, so it has the same contents at every parallelism level.
// The cmds' -trace and -stats read everything they show from it.
type RunLog struct {
	Runs []*LoggedRun
}

// log lets runsOf read the runs of any result that embeds a RunLog.
func (l *RunLog) log() []*LoggedRun { return l.Runs }

// logOf concatenates the run logs of batches of results, in order.
func logOf(batches ...[]*Result) RunLog {
	var l RunLog
	for _, results := range batches {
		for _, r := range results {
			l.Runs = append(l.Runs, r.Runs...)
		}
	}
	return l
}

// runLabel names a logged run after its workload and config.
func runLabel(program string, cfg Config, cores int, suffix string) string {
	l := fmt.Sprintf("%s p%d %s/%s seed%d", program, cores, cfg.Flavor, cfg.Scheduler, cfg.Seed)
	if suffix != "" {
		l += " " + suffix
	}
	return l
}

// WriteFooter prints the runtime-metrics footer of runs: one summary line
// per run, derived from its profile. No runs print nothing.
func WriteFooter(w io.Writer, runs []*LoggedRun) {
	if len(runs) == 0 {
		return
	}
	fmt.Fprintln(w, "runtime metrics:")
	for _, r := range runs {
		fmt.Fprintf(w, "  %s: %s\n", r.Label, timeline.StatsFromTrace(r.Trace).Summary())
	}
}

// PerfettoRuns lists runs for a trace export, with their critical paths.
func PerfettoRuns(runs []*LoggedRun) []export.PerfettoRun {
	out := make([]export.PerfettoRun, len(runs))
	for i, r := range runs {
		out[i] = export.PerfettoRun{Label: r.Label, Trace: r.Trace, Critical: r.Critical()}
	}
	return out
}

// Figure is one step of the figure suite: its grainbench -fig ID and its
// regenerator, which prints to w and returns the runs it requested. cores
// is Figure 1's core count (0 selects 48); the other figures ignore it.
type Figure struct {
	ID  string
	Run func(w io.Writer, cores int) ([]*LoggedRun, error)
}

// Figures is the figure suite, in grainbench's -fig all order.
var Figures = []Figure{
	{"1", func(w io.Writer, cores int) ([]*LoggedRun, error) { return runsOf(Figure1(w, cores)) }},
	{"2", func(w io.Writer, _ int) ([]*LoggedRun, error) { return runsOf(Figure2(w)) }},
	{"4", func(w io.Writer, _ int) ([]*LoggedRun, error) { return runsOf(Figure4(w)) }},
	{"5", func(w io.Writer, _ int) ([]*LoggedRun, error) { return runsOf(Figure5(w)) }},
	{"sort", func(w io.Writer, _ int) ([]*LoggedRun, error) { return runsOf(SortPageTable(w)) }},
	{"6", func(w io.Writer, _ int) ([]*LoggedRun, error) { return runsOf(Figure6(w)) }},
	{"7", func(w io.Writer, _ int) ([]*LoggedRun, error) { return runsOf(Figure7(w)) }},
	{"8", func(w io.Writer, _ int) ([]*LoggedRun, error) { return runsOf(Figure8(w)) }},
	{"9", func(w io.Writer, _ int) ([]*LoggedRun, error) { return runsOf(Figure9Table1(w)) }},
	{"11", func(w io.Writer, _ int) ([]*LoggedRun, error) { return runsOf(Figure11(w)) }},
	{"others", func(w io.Writer, _ int) ([]*LoggedRun, error) { return runsOf(OtherBenchmarks(w)) }},
}

// runsOf returns a figure's run log, or its error.
func runsOf[R interface{ log() []*LoggedRun }](r R, err error) ([]*LoggedRun, error) {
	if err != nil {
		return nil, err
	}
	return r.log(), nil
}

// Result bundles a fully analyzed run. A live run's Result also carries
// the runs it performed (the baseline first); an artifact's carries none.
type Result struct {
	Trace      *profile.Trace
	Graph      *core.Graph
	Report     *metrics.Report
	Assessment *highlight.Assessment
	RunLog

	// sidecarLod/sidecarQuery hold the raw derived-artifact payloads a
	// columnar v2 decode carried (nil otherwise). Lod and GrainTable
	// adopt them lazily and fall back to a fresh build when absent or
	// structurally unsound.
	sidecarLod   []byte
	sidecarQuery []byte

	lodOnce sync.Once
	lodIx   *lod.Index

	qtOnce sync.Once
	qtPool *runpool.Runner
	qt     *query.Table
}

// Lod returns the level-of-detail summary index for this result, adopting
// the decoded sidecar when one rode along with the artifact and building
// fresh otherwise. The index is computed once and shared; both paths
// produce byte-identical tables and windows.
func (res *Result) Lod() *lod.Index {
	res.lodOnce.Do(func() {
		if res.sidecarLod != nil {
			if ix, err := lod.DecodeIndex(res.Graph, res.sidecarLod); err == nil {
				res.lodIx = ix
				return
			}
		}
		res.lodIx = lod.Build(res.Graph, res.Assessment)
	})
	return res.lodIx
}

// GrainTable returns the per-grain query metric table, adopting the
// decoded sidecar when present (after checking its row count against the
// report) and deriving it from the report otherwise. The table is
// computed once; pool only matters for the first call's derivation.
func (res *Result) GrainTable(pool *runpool.Runner) *query.Table {
	res.qtOnce.Do(func() {
		if res.sidecarQuery != nil {
			if t, err := query.DecodeTable(res.sidecarQuery); err == nil && t.NumRows() == res.Report.Len() {
				res.qt = t
				return
			}
		}
		res.qt = QueryTable(res, pool)
	})
	return res.qt
}

// Config shapes a harness run.
type Config struct {
	Cores     int
	Flavor    rts.Flavor
	Scheduler rts.SchedulerKind
	Policy    machine.Policy
	Seed      uint64
	// Baseline enables the extra single-core run used for work deviation.
	Baseline bool
	// WorkDeviationMax overrides the problem threshold (0 = default 2).
	WorkDeviationMax float64
}

// rtsConfig translates a harness Config into a run configuration.
func rtsConfig(inst workloads.Instance, cfg Config) rts.Config {
	return rts.Config{
		Program:   inst.Name(),
		Cores:     cfg.Cores,
		Flavor:    cfg.Flavor,
		Scheduler: cfg.Scheduler,
		Seed:      cfg.Seed,
		Policy:    cfg.Policy,
	}
}

// Run executes inst under cfg, verifies its computational result, and
// derives the full metric set.
func Run(inst workloads.Instance, cfg Config) (*Result, error) {
	return RunSpan(inst, cfg, nil)
}

// RunSpan is Run with the analysis phase spans rooted under parent — the
// cmds pass their top-level span so a live run's whole pipeline lands in
// one tree. A nil parent (or disabled self-observability) is exactly Run.
// Like every single request, it runs on the calling goroutine.
func RunSpan(inst workloads.Instance, cfg Config, parent *obs.Span) (*Result, error) {
	return runReq{mk: func() workloads.Instance { return inst }, cfg: cfg}.do(parent)
}

// table starts a tabwriter for aligned console tables.
func table(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// speedup is the ratio of a 1-core run's makespan to a parallel run's.
func speedup(one, par *Result) float64 {
	return float64(one.Trace.Makespan()) / float64(par.Trace.Makespan())
}

// pct formats a 0..1 fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
