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

// analyze is the shared analysis half of runOne and AnalyzeTraceOn: graph
// build, metric derivation and highlighting, with the per-grain kernels
// running on pool (nil selects the shared experiment pool, the CLI
// default). It feeds the analyze-phase timer and, when self-observability
// is enabled, reports one phase-span tree per analysis — rooted under
// parent when the caller threaded one through, or as its own root (the
// batch case, where analyses run on pool workers).
func analyze(tr, baseline *profile.Trace, cores int, wdMax float64, parent *obs.Span, pool *runpool.Runner) *Result {
	return analyzeWith(tr, nil, baseline, cores, wdMax, parent, pool)
}

// analyzeWith is analyze accepting an already-materialized graph (the
// columnar v2 decode path hands one over); g == nil builds it from the
// trace exactly as before. The rest of the pipeline is shared, so a
// decoded graph analyzes byte-identically to a freshly built one.
func analyzeWith(tr *profile.Trace, g *core.Graph, baseline *profile.Trace, cores int, wdMax float64, parent *obs.Span, pool *runpool.Runner) *Result {
	start := time.Now()
	defer func() { analyzeNS.Add(int64(time.Since(start))) }()
	if pool == nil {
		pool = currentPool()
	}
	sp := obs.Under(SelfProfiler(), parent, "analyze:"+tr.Program)
	defer sp.End()

	// Number the grains and resolve the records' string references: the one
	// pass of an analysis that hashes grain IDs. A decoded trace paid for
	// it at ingest (ggp reports it there) and this is a no-op.
	isp := sp.Child("index:grains")
	tr.Numbering()
	isp.End()

	if g == nil {
		bsp := sp.Child("build")
		g = core.Build(tr)
		bsp.End()
	}
	rep := metrics.Analyze(tr, g, baseline, metrics.Options{Pool: pool, Span: sp})
	th := highlight.Defaults(cores, 12)
	if wdMax > 0 {
		th.WorkDeviationMax = wdMax
	}
	a := highlight.EvaluateObs(rep, th, pool, sp)
	return &Result{Trace: tr, Graph: g, Report: rep, Assessment: a}
}

// InstrumentedRun is one entry of the run log: a run's label, its profile
// and the critical-path grain set, by grain number (for fully analyzed
// runs).
type InstrumentedRun struct {
	Label    string
	Trace    *profile.Trace
	Critical []bool
}

// Instrumentation is the run log: when Instr is non-nil, every run that
// Run/Makespan perform — simulated, memoized or replayed from an
// artifact — is recorded in Runs. The cmds enable it for their -trace /
// -stats flags; both read everything they show from the profiles.
//
// Recording is serialized internally, but figures always append their
// batches in request order (see runBatch), so Runs has the same contents
// in the same order at every parallelism level.
type Instrumentation struct {
	// PrintFooter makes each figure regenerator append a runtime-metrics
	// footer covering the runs it performed (timeline.Stats summaries).
	PrintFooter bool

	Runs []*InstrumentedRun

	mu         sync.Mutex
	footerMark int // Runs already covered by a previous footer
}

// Instr, when non-nil, logs every run in this package.
// Set it once before running figures, not while they execute.
var Instr *Instrumentation

// record appends runs to the run log.
func record(iruns []*InstrumentedRun) {
	ins := Instr
	if ins == nil || len(iruns) == 0 {
		return
	}
	ins.mu.Lock()
	ins.Runs = append(ins.Runs, iruns...)
	ins.mu.Unlock()
}

// runLabel names a logged run after its workload and config.
func runLabel(program string, cfg Config, cores int, suffix string) string {
	l := fmt.Sprintf("%s p%d %s/%s seed%d", program, cores, cfg.Flavor, cfg.Scheduler, cfg.Seed)
	if suffix != "" {
		l += " " + suffix
	}
	return l
}

// WriteFooter prints a one-line runtime-metrics summary for every run
// recorded since the previous footer, then advances the mark.
func (ins *Instrumentation) WriteFooter(w io.Writer) {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	runs := ins.Runs[ins.footerMark:]
	ins.footerMark = len(ins.Runs)
	if len(runs) == 0 {
		return
	}
	fmt.Fprintln(w, "runtime metrics:")
	for _, r := range runs {
		fmt.Fprintf(w, "  %s: %s\n", r.Label, timeline.StatsFromTrace(r.Trace).Summary())
	}
}

// footer appends the runtime-metrics footer to a figure's output when
// instrumentation with footers is enabled.
func footer(w io.Writer) {
	if w == nil || Instr == nil || !Instr.PrintFooter {
		return
	}
	Instr.WriteFooter(w)
}

// Result bundles a fully analyzed run.
type Result struct {
	Trace      *profile.Trace
	Graph      *core.Graph
	Report     *metrics.Report
	Assessment *highlight.Assessment

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

// runOne is Run without the run-log recording: it returns the logged
// runs it produced so batch callers can record them in
// request order after the whole batch completes. parent, when non-nil,
// roots the analysis phase spans (see analyze).
func runOne(inst workloads.Instance, cfg Config, parent *obs.Span) (*Result, []*InstrumentedRun, error) {
	rcfg := rtsConfig(inst, cfg)

	var iruns []*InstrumentedRun
	var baseline *profile.Trace
	if cfg.Baseline {
		bcfg := rcfg
		bcfg.Cores = 1
		tr, irun, err := simulate(inst, bcfg, runLabel(inst.Name(), cfg, 1, "baseline"))
		if irun != nil {
			iruns = append(iruns, irun)
		}
		if err != nil {
			return nil, iruns, fmt.Errorf("baseline run: %w", err)
		}
		baseline = tr
	}
	tr, irun, err := simulate(inst, rcfg, runLabel(inst.Name(), cfg, cfg.Cores, ""))
	if irun != nil {
		iruns = append(iruns, irun)
	}
	if err != nil {
		return nil, iruns, fmt.Errorf("parallel run: %w", err)
	}
	res := analyze(tr, baseline, cfg.Cores, cfg.WorkDeviationMax, parent, nil)
	if irun != nil {
		irun.Critical = res.Graph.CriticalGrains()
	}
	return res, iruns, nil
}

// Run executes inst under cfg, verifies its computational result, and
// derives the full metric set.
func Run(inst workloads.Instance, cfg Config) (*Result, error) {
	return RunSpan(inst, cfg, nil)
}

// RunSpan is Run with the analysis phase spans rooted under parent — the
// cmds pass their top-level span so a live run's whole pipeline lands in
// one tree. A nil parent (or disabled self-observability) is exactly Run.
func RunSpan(inst workloads.Instance, cfg Config, parent *obs.Span) (*Result, error) {
	res, iruns, err := runOne(inst, cfg, parent)
	record(iruns)
	return res, err
}

// AnalyzeTraceOn derives the full metric set from an already-recorded
// trace (typically a grain-profile artifact loaded with ggp.ReadFile)
// without executing the simulator. baseline may be nil, in which case work
// deviation is unavailable, exactly as with Config.Baseline off. The
// pipeline is runOne's analysis half verbatim — graph build, metrics,
// highlighting — so a saved artifact analyzes byte-identically to the live
// run it recorded. cfg.Cores <= 0 takes the core count from the trace.
// The phase spans are rooted under parent (nil reports them as their own
// tree).
//
// The parallel kernels run on pool, not on the shared package-level one
// set by SetParallelism, which makes this the re-entrant entry point for
// concurrent callers (the grainserved artifact server analyzes independent
// requests on pools it owns): the analysis touches no package-level pool
// state, so concurrent AnalyzeTraceOn calls never race with each other or
// with a CLI-style SetParallelism elsewhere in the process. A nil pool
// selects the shared pool, which is only safe when nothing mutates it
// concurrently. The output is byte-identical at every pool width.
func AnalyzeTraceOn(pool *runpool.Runner, tr, baseline *profile.Trace, cfg Config, parent *obs.Span) *Result {
	cores := cfg.Cores
	if cores <= 0 {
		cores = tr.Cores
	}
	return analyze(tr, baseline, cores, cfg.WorkDeviationMax, parent, pool)
}

// makespanOne is Makespan without the run-log recording.
func makespanOne(inst workloads.Instance, cfg Config) (uint64, []*InstrumentedRun, error) {
	rcfg := rtsConfig(inst, cfg)
	tr, irun, err := simulate(inst, rcfg, runLabel(inst.Name(), cfg, cfg.Cores, "makespan"))
	var iruns []*InstrumentedRun
	if irun != nil {
		iruns = append(iruns, irun)
	}
	if err != nil {
		return 0, iruns, err
	}
	return tr.Makespan(), iruns, nil
}

// Makespan runs inst and returns its virtual makespan (verifying results).
func Makespan(inst workloads.Instance, cfg Config) (uint64, error) {
	mk, iruns, err := makespanOne(inst, cfg)
	record(iruns)
	return mk, err
}

// Speedup returns makespan(1 core) / makespan(cores). The two runs are
// independent and execute through the pool.
func Speedup(mk func() workloads.Instance, cfg Config) (float64, error) {
	one := cfg
	one.Cores = 1
	mks, err := makespanBatch([]runReq{
		{mk: mk, cfg: one},
		{mk: mk, cfg: cfg},
	})
	if err != nil {
		return 0, err
	}
	return float64(mks[0]) / float64(mks[1]), nil
}

// table starts a tabwriter for aligned console tables.
func table(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// pct formats a 0..1 fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
