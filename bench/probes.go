package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"graingraph/internal/cache"
	"graingraph/internal/core"
	"graingraph/internal/export"
	"graingraph/internal/expt"
	"graingraph/internal/ggp"
	"graingraph/internal/highlight"
	"graingraph/internal/lod"
	"graingraph/internal/machine"
	"graingraph/internal/metrics"
	"graingraph/internal/profile"
	"graingraph/internal/query"
	"graingraph/internal/rts"
	"graingraph/internal/runpool"
	"graingraph/internal/whatif"
	"graingraph/internal/workloads"
)

// The per-layer probes. Every traced run makes all of them, whatever its
// workload, by timing calls into each layer's public functions from
// outside; README.md maps each to the end-to-end metric it should move.
// Counts marked exact repeat bit for bit on the same seed.

// perLayerMetrics lists every metric a traced run prints, in report order.
// BENCHMARK.json's per_layer is this list.
var perLayerMetrics = []metricDef{
	{Name: "host.spin_s", Unit: "s"}, {Name: "host.memtouch_s", Unit: "s"}, {Name: "host.fault_s", Unit: "s"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio"}, {Name: "bench.span_coverage", Unit: "ratio"},

	{Name: "rts.run_s.sort", Unit: "s"}, {Name: "rts.run_s.giant8", Unit: "s"}, {Name: "rts.grains_per_s", Unit: "1/s"}, {Name: "rts.alloc_mb.sort", Unit: "MB"},
	{Name: "rts.sim_cycles.sort", Unit: "count"}, {Name: "rts.sim_cycles.giant8", Unit: "count"},
	{Name: "cache.access_per_s", Unit: "1/s"}, {Name: "cache.l1_misses", Unit: "count"},

	{Name: "ggp.decode_v1_s", Unit: "s"}, {Name: "ggp.decode_v2_s", Unit: "s"}, {Name: "ggp.decode_v2s_s", Unit: "s"}, {Name: "ggp.decode_v2s_j1_s", Unit: "s"},
	{Name: "ggp.write_v1_s", Unit: "s"}, {Name: "ggp.encode_v2_s", Unit: "s"}, {Name: "ggp.encode_v2s_s", Unit: "s"},
	{Name: "ggp.v1_bytes", Unit: "count"}, {Name: "ggp.v2_bytes", Unit: "count"}, {Name: "ggp.v2s_bytes", Unit: "count"},

	{Name: "core.build_s", Unit: "s"}, {Name: "core.levels_s", Unit: "s"}, {Name: "core.adopt_s", Unit: "s"}, {Name: "core.nodes", Unit: "count"}, {Name: "core.edges", Unit: "count"},
	{Name: "metrics.analyze_s", Unit: "s"}, {Name: "metrics.analyze_j1_s", Unit: "s"}, {Name: "metrics.par_speedup", Unit: "ratio"},
	{Name: "highlight.evaluate_s", Unit: "s"}, {Name: "highlight.problem_grains", Unit: "count"},
	{Name: "whatif.new_s", Unit: "s"}, {Name: "whatif.rank_s", Unit: "s"},
	{Name: "whatif.sparse_evals", Unit: "count"}, {Name: "whatif.full_evals", Unit: "count"}, {Name: "whatif.fallbacks", Unit: "count"},
	{Name: "lod.build_s", Unit: "s"}, {Name: "lod.decode_s", Unit: "s"}, {Name: "lod.encode_s", Unit: "s"}, {Name: "lod.window_s", Unit: "s"}, {Name: "lod.window_nodes", Unit: "count"},
	{Name: "query.table_build_s", Unit: "s"}, {Name: "query.table_decode_s", Unit: "s"}, {Name: "query.table_encode_s", Unit: "s"}, {Name: "query.parse_us", Unit: "us"},
	{Name: "query.run_s.topk", Unit: "s"}, {Name: "query.run_s.groupby", Unit: "s"}, {Name: "query.rows_per_s", Unit: "1/s"},
	{Name: "export.dot_window_s", Unit: "s"}, {Name: "export.json_window_s", Unit: "s"}, {Name: "export.dot_bytes", Unit: "count"},
	{Name: "runpool.parfor_overhead_us", Unit: "us"}, {Name: "runpool.par_speedup", Unit: "ratio"}, {Name: "runpool.memo_hit_ns", Unit: "ns"},

	{Name: "expt.fig8_s", Unit: "s"}, {Name: "expt.sort_table_s", Unit: "s"}, {Name: "expt.fig9_s", Unit: "s"}, {Name: "expt.fig11_s", Unit: "s"}, {Name: "expt.others_s", Unit: "s"},
	{Name: "expt.analyze_s", Unit: "s"}, {Name: "expt.ingest_s", Unit: "s"},
	{Name: "expt.simulated_runs", Unit: "count"}, {Name: "expt.memoized_runs", Unit: "count"},
	{Name: "expt.artifact_decodes", Unit: "count"}, {Name: "expt.artifact_hits", Unit: "count"},
	{Name: "expt.upgrade_file_s", Unit: "s"}, {Name: "expt.glue_coverage", Unit: "ratio"},

	{Name: "grainserved.upload_s", Unit: "s"}, {Name: "grainserved.first_request_s", Unit: "s"}, {Name: "grainserved.cold_summary_s", Unit: "s"},
	{Name: "grainserved.novel_p50_ms", Unit: "ms"}, {Name: "grainserved.novel_p99_ms", Unit: "ms"}, {Name: "grainserved.novel_req_per_s", Unit: "1/s"},
	{Name: "grainserved.render_hit_p50_ms", Unit: "ms"}, {Name: "grainserved.render_hit_p99_ms", Unit: "ms"}, {Name: "grainserved.render_hit_req_per_s", Unit: "1/s"},
	{Name: "grainserved.cpu_s", Unit: "s"}, {Name: "grainserved.render_hit_ratio", Unit: "ratio"},
	{Name: "grainserved.analysis_misses", Unit: "count"}, {Name: "grainserved.decode_misses", Unit: "count"}, {Name: "grainserved.evictions", Unit: "count"},
	{Name: "grainserved.admission_waits", Unit: "count"}, {Name: "grainserved.admission_wait_ms", Unit: "ms"},
	{Name: "grainserved.phase_ms.analyze", Unit: "ms"}, {Name: "grainserved.phase_ms.metric", Unit: "ms"}, {Name: "grainserved.phase_ms.decode", Unit: "ms"},
	{Name: "grainserved.phase_ms.assemble", Unit: "ms"}, {Name: "grainserved.phase_ms.build", Unit: "ms"}, {Name: "grainserved.phase_ms.highlight", Unit: "ms"},
	{Name: "grainserved.phase_ms.upgrade-ggp2", Unit: "ms"}, {Name: "grainserved.phase_ms.whatif", Unit: "ms"}, {Name: "grainserved.phase_ms.lod-window", Unit: "ms"},
	{Name: "grainserved.phase_ms.export", Unit: "ms"}, {Name: "grainserved.phase_ms.query-run", Unit: "ms"}, {Name: "grainserved.phase_ms.admit", Unit: "ms"},
}

// probeSubset is the part of the figure suite the probes time in every
// traced run. Figures 1 and 5 (5 s and 11 s here) are reported only by
// `bench trace figures`, whose cold op regenerates the whole suite.
var probeSubset = map[string]bool{"fig8": true, "sort_table": true, "fig9": true, "fig11": true, "others": true}

// A probe's value is the median of probeReps calls; calls that take a
// second or more each on G8 (decode, encode, the analysis pipeline) are
// made heavyProbeReps times, which keeps a traced run near 100 s.
const (
	probeReps      = 3
	heavyProbeReps = 2
)

// timed runs f reps times, a GC before each, and returns the median
// seconds. Each call is recorded as a probe span (op id -1).
func (c *runCtx) timed(name string, reps int, f func()) float64 {
	var samples []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		sp := c.rec.root(-1, name)
		start := time.Now()
		f()
		samples = append(samples, time.Since(start).Seconds())
		sp.end()
	}
	return median(samples)
}

func runLayerProbes(c *runCtx) error {
	for _, probe := range []func(*runCtx) error{
		probeSimulator, probeCacheModel, probeAnalysis, probeRunpool, probeFigures, probeServer,
	} {
		if err := probe(c); err != nil {
			return err
		}
	}
	// A metric the list names and no probe set would be a silent hole.
	for _, d := range perLayerMetrics {
		if _, ok := c.res.Metrics[d.Name]; !ok && !strings.HasPrefix(d.Name, "host.") && !strings.HasPrefix(d.Name, "bench.") {
			// host.* and bench.* are set once the probes are done.
			return fmt.Errorf("no probe reported %s", d.Name)
		}
	}
	return nil
}

func simulate(inst workloads.Instance, seed uint64) (*profile.Trace, error) {
	tr := rts.Run(rts.Config{Program: inst.Name(), Cores: simulatedCores, Seed: seed}, inst.Program())
	return tr, inst.Verify()
}

// probeSimulator times the rts layer (with sched, sim, exec, machine and
// the workload bodies): should move figures/cold_s and every setup_s, and
// nothing else. The cycle counts must stay identical across any
// simulator-speed change.
func probeSimulator(c *runCtx) error {
	r := c.res
	sortInst, err := workloads.Get("sort", workloads.VariantDefault)
	if err != nil {
		return err
	}
	if c.o.smoke {
		if sortInst, err = workloads.Get("kdtree", workloads.VariantDefault); err != nil {
			return err
		}
	}
	var before, after runtime.MemStats
	var sortTrace *profile.Trace
	var simErr error
	runtime.ReadMemStats(&before)
	r.set("rts.run_s.sort", "s", c.timed("rts.run.sort", 1, func() { sortTrace, simErr = simulate(sortInst, c.o.seed) }))
	runtime.ReadMemStats(&after)
	if simErr != nil {
		return simErr
	}
	r.set("rts.alloc_mb.sort", "MB", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	r.set("rts.sim_cycles.sort", "count", float64(sortTrace.Makespan()))

	giantS := c.timed("rts.run.giant8", 1, func() { c.giant, simErr = simulate(giantInstance(c.o.depth(giantDepth)), c.o.seed) })
	if simErr != nil {
		return simErr
	}
	r.set("rts.run_s.giant8", "s", giantS)
	r.set("rts.grains_per_s", "1/s", float64(c.giant.NumGrains())/giantS)
	r.set("rts.sim_cycles.giant8", "count", float64(c.giant.Makespan()))
	return nil
}

// probeCacheModel drives the cache model alone with a fixed stream of
// sequential, strided and random accesses from all 48 cores: should move
// figures/cold_s only.
func probeCacheModel(c *runCtx) error {
	topo := machine.Default48()
	mem := machine.NewMemory(topo, machine.FirstTouch)
	h := cache.New(cache.DefaultConfig(), topo, mem)
	region := mem.Alloc("probe", 64<<20)
	rng := rand.New(rand.NewPCG(1, 2)) // fixed: the miss count is an exact metric
	rounds := 40
	if c.o.smoke {
		rounds = 2
	}
	var ctr cache.Counters
	took := c.timed("cache.stream", 1, func() {
		now := uint64(0)
		for round := 0; round < rounds; round++ {
			for cpu := 0; cpu < topo.NumCores(); cpu++ {
				off := rng.Int64N(region.Size - 1<<20)
				now += h.AccessRange(cpu, region.Base+off, 64<<10, round%2 == 0, now, &ctr)
				now += h.AccessStrided(cpu, region.Base+off, 512, 256, false, now, &ctr)
				for i := 0; i < 1024; i++ {
					now += h.Access(cpu, region.Base+rng.Int64N(region.Size), false, now, &ctr)
				}
			}
		}
	})
	c.res.set("cache.access_per_s", "1/s", float64(ctr.Accesses)/took)
	c.res.set("cache.l1_misses", "count", float64(ctr.L1Miss))
	return nil
}

// probeAnalysis times the analysis stack layer by layer on the giant run:
// ggp (with colenc), core, metrics, highlight, whatif, lod, query, export.
func probeAnalysis(c *runCtx) error {
	r, pool, serial := c.res, c.pool, runpool.New(1)
	var err error
	must := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}

	// The analysis pipeline step by step, every repetition on a freshly
	// decoded trace: what one expt.AnalyzeDecoded call pays, the trace's
	// lazy indexes included, next to the whole call the steps decompose.
	var v1 bytes.Buffer
	if err := ggp.WriteTrace(&v1, c.giant); err != nil {
		return err
	}
	var (
		tr      *profile.Trace
		g       *core.Graph
		rep     *metrics.Report
		a       *highlight.Assessment
		samples = make(map[string][]float64)
	)
	// No GC between the steps of one sequence: the whole call they are
	// compared with gets none either.
	step := func(name string, f func()) {
		sp := c.rec.root(-1, name)
		start := time.Now()
		f()
		samples[name] = append(samples[name], time.Since(start).Seconds())
		sp.end()
	}
	whole := func() error {
		dec, err := ggp.Decode(v1.Bytes(), pool, nil)
		if err != nil {
			return err
		}
		runtime.GC()
		step("expt.analyze_decoded", func() { expt.AnalyzeDecodedOn(pool, dec, nil, expt.Config{}, nil) })
		return nil
	}
	steps := func() error {
		dec, err := ggp.Decode(v1.Bytes(), pool, nil)
		if err != nil {
			return err
		}
		tr = dec.Trace
		runtime.GC()
		step("core.build", func() { g = core.Build(tr) })
		step("core.levels", func() { g.NumLevels() })
		step("metrics.analyze", func() { rep = metrics.Analyze(tr, g, nil, metrics.Options{Pool: pool}) })
		step("highlight.evaluate", func() { a = highlight.EvaluateWith(rep, highlight.Defaults(tr.Cores, 12), pool) })
		return nil
	}
	oneWorker := func() error {
		dec, err := ggp.Decode(v1.Bytes(), pool, nil)
		if err != nil {
			return err
		}
		sg := core.Build(dec.Trace)
		sg.NumLevels()
		runtime.GC()
		step("metrics.analyze_j1", func() { metrics.Analyze(dec.Trace, sg, nil, metrics.Options{Pool: serial}) })
		return nil
	}
	// Whichever of the whole call and its steps runs second finds the heap
	// the first one grew and is faster for it: one unrecorded call grows
	// it, then the order alternates. The steps run last, because their
	// results feed the probes below.
	if err := whole(); err != nil {
		return err
	}
	delete(samples, "expt.analyze_decoded")
	for _, seq := range [][]func() error{{steps, oneWorker, whole}, {whole, oneWorker, steps}} {
		for _, f := range seq {
			if err := f(); err != nil {
				return err
			}
		}
	}
	med := func(name string) float64 { return median(samples[name]) }
	r.set("core.build_s", "s", med("core.build"))
	r.set("core.levels_s", "s", med("core.levels"))
	r.set("metrics.analyze_s", "s", med("metrics.analyze"))
	r.set("metrics.analyze_j1_s", "s", med("metrics.analyze_j1"))
	r.set("metrics.par_speedup", "ratio", med("metrics.analyze_j1")/med("metrics.analyze"))
	r.set("highlight.evaluate_s", "s", med("highlight.evaluate"))
	sum := func(name string) (t float64) {
		for _, v := range samples[name] {
			t += v
		}
		return t
	}
	r.set("expt.glue_coverage", "ratio",
		(sum("core.build")+sum("core.levels")+sum("metrics.analyze")+sum("highlight.evaluate"))/sum("expt.analyze_decoded"))
	problems := 0
	for _, p := range highlight.AllProblems {
		problems += a.Count(p)
	}
	r.set("highlight.problem_grains", "count", float64(problems))
	r.set("core.adopt_s", "s", c.timed("core.adopt", probeReps, func() {
		_, e := core.AdoptGraph(tr, g.ExportColumns(), g.FirstNode, g.LastNode)
		must(e)
	}))
	r.set("core.nodes", "count", float64(g.NumNodes()))
	r.set("core.edges", "count", float64(g.NumEdges()))

	// whatif: engine construction and the ranked table.
	var eng *whatif.Engine
	r.set("whatif.new_s", "s", c.timed("whatif.new", 1, func() { eng = whatif.New(g, rep) }))
	r.set("whatif.rank_s", "s", c.timed("whatif.rank", 1, func() {
		_, e := eng.Rank(a, pool, whatif.RankOptions{TopN: 10})
		must(e)
	}))
	st := eng.Stats()
	r.set("whatif.sparse_evals", "count", float64(st.Sparse))
	r.set("whatif.full_evals", "count", float64(st.Full))
	r.set("whatif.fallbacks", "count", float64(st.Fallback))

	// lod: index build, codec, one window.
	var ix *lod.Index
	var lodBytes []byte
	r.set("lod.build_s", "s", c.timed("lod.build", probeReps, func() { ix = lod.Build(g, a) }))
	r.set("lod.encode_s", "s", c.timed("lod.encode", probeReps, func() { lodBytes = ix.Encode() }))
	r.set("lod.decode_s", "s", c.timed("lod.decode", probeReps, func() { _, e := lod.DecodeIndex(g, lodBytes); must(e) }))
	wopt, e := lod.ParseWindow(sessionWindow)
	must(e)
	var wg *core.Graph
	var wstats lod.WindowStats
	r.set("lod.window_s", "s", c.timed("lod.window", probeReps, func() { wg, wstats, e = ix.Window(wopt); must(e) }))
	if err != nil {
		return err
	}
	r.set("lod.window_nodes", "count", float64(wstats.Nodes))

	// export: the window as DOT and JSON.
	core.Layout(wg)
	var dot bytes.Buffer
	r.set("export.dot_window_s", "s", c.timed("export.dot_window", probeReps, func() {
		dot.Reset()
		must(export.DOTWithWhatIfPool(&dot, wg, a, export.ViewStructure, nil, pool))
	}))
	r.set("export.json_window_s", "s", c.timed("export.json_window", probeReps, func() {
		must(export.JSONWithWhatIfPool(io.Discard, wg, a, nil, pool))
	}))
	r.set("export.dot_bytes", "count", float64(dot.Len()))

	// query: the per-grain table, its codec, parsing and two plans.
	res := &expt.Result{Trace: tr, Graph: g, Report: rep, Assessment: a}
	var table *query.Table
	var tableBytes []byte
	r.set("query.table_build_s", "s", c.timed("query.table_build", probeReps, func() { table = expt.QueryTable(res, pool) }))
	r.set("query.table_encode_s", "s", c.timed("query.table_encode", probeReps, func() { tableBytes = query.EncodeTable(table) }))
	r.set("query.table_decode_s", "s", c.timed("query.table_decode", probeReps, func() { _, e := query.DecodeTable(tableBytes); must(e) }))
	const parses = 2000
	r.set("query.parse_us", "us", 1e6/parses*c.timed("query.parse", 1, func() {
		for i := 0; i < parses; i++ {
			_, e := query.Parse(sessionTopK)
			must(e)
		}
	}))
	runPlan := func(name, src string) float64 {
		plan, e := query.Parse(src)
		must(e)
		if e != nil {
			return 0
		}
		return c.timed(name, probeReps, func() { _, e := plan.Run(table, pool); must(e) })
	}
	r.set("query.run_s.topk", "s", runPlan("query.run_topk", sessionTopK))
	groupByS := runPlan("query.run_groupby", sessionGroupBy)
	r.set("query.run_s.groupby", "s", groupByS)
	r.set("query.rows_per_s", "1/s", float64(table.NumRows())/groupByS)

	// ggp: the three stored forms, written and read back. The bare v2
	// needs a graph whose level index was never forced.
	bare := core.Build(tr)
	side := []ggp.Sidecar{{Kind: ggp.SidecarLod, Data: lodBytes}, {Kind: ggp.SidecarQuery, Data: tableBytes}}
	var v2, v2s []byte
	r.set("ggp.write_v1_s", "s", c.timed("ggp.write_v1", probeReps, func() { must(ggp.WriteTrace(io.Discard, tr)) }))
	r.set("ggp.encode_v2_s", "s", c.timed("ggp.encode_v2", heavyProbeReps, func() { v2, e = ggp.EncodeV2(tr, bare, nil); must(e) }))
	r.set("ggp.encode_v2s_s", "s", c.timed("ggp.encode_v2s", heavyProbeReps, func() { v2s, e = ggp.EncodeV2(tr, g, side); must(e) }))
	r.set("ggp.v1_bytes", "count", float64(v1.Len()))
	r.set("ggp.v2_bytes", "count", float64(len(v2)))
	r.set("ggp.v2s_bytes", "count", float64(len(v2s)))
	decode := func(name string, data []byte, p *runpool.Runner) float64 {
		return c.timed(name, heavyProbeReps, func() { _, e := ggp.Decode(data, p, nil); must(e) })
	}
	r.set("ggp.decode_v1_s", "s", decode("ggp.decode_v1", v1.Bytes(), pool))
	r.set("ggp.decode_v2_s", "s", decode("ggp.decode_v2", v2, pool))
	r.set("ggp.decode_v2s_s", "s", decode("ggp.decode_v2s", v2s, pool))
	r.set("ggp.decode_v2s_j1_s", "s", decode("ggp.decode_v2s_j1", v2s, serial))

	// expt: the file-to-file upgrade, the -ggpconv wait.
	dir, e := scratchDir("upgrade")
	must(e)
	if err != nil {
		return err
	}
	src, dst := filepath.Join(dir, "a.v1.ggp"), filepath.Join(dir, "a.v2s.ggp")
	must(ggp.WriteFile(src, tr))
	r.set("expt.upgrade_file_s", "s", c.timed("expt.upgrade_file", 1, func() { must(expt.UpgradeArtifact(src, dst, pool)) }))
	return err
}

var probeSink float64

// probeRunpool measures what the shared pool itself costs and yields: the
// overhead of one empty 4096-chunk fan-out, the speed-up of a fixed
// arithmetic kernel at -j over one worker (far below nproc bounds what any
// kernel change can claim), and a memo hit.
func probeRunpool(c *runCtx) error {
	r, pool, serial := c.res, c.pool, runpool.New(1)
	r.set("runpool.parfor_overhead_us", "us", 1e6*c.timed("runpool.parfor_empty", 21, func() {
		runpool.ParallelFor(pool, 4096, 1, func(_, _, _ int) {})
	}))
	const n = 1 << 22
	kernel := func(p *runpool.Runner) func() {
		return func() {
			probeSink += runpool.ParallelReduce(p, n, 4096, 0.0, func(_, lo, hi int, acc float64) float64 {
				for i := lo; i < hi; i++ {
					x := float64(i)
					acc += x * x / (x + 1)
				}
				return acc
			}, func(a, b float64) float64 { return a + b })
		}
	}
	one := c.timed("runpool.kernel_j1", 5, kernel(serial))
	many := c.timed("runpool.kernel", 5, kernel(pool))
	r.set("runpool.par_speedup", "ratio", one/many)

	memo := runpool.NewCache[int]()
	key := runpool.KeyOf("bench", "memo")
	const hits = 200_000
	r.set("runpool.memo_hit_ns", "ns", 1e9/hits*c.timed("runpool.memo_hit", 3, func() {
		for i := 0; i < hits; i++ {
			memo.Do(key, func() (int, error) { return 1, nil })
		}
	}))
	return nil
}

// probeFigures regenerates the cheap half of the figure suite live, then
// from the artifacts it recorded, reading the expt package's own counters.
func probeFigures(c *runCtx) error {
	r := c.res
	only := probeSubset
	if c.o.smoke {
		only = smokeFigures
	}
	dir, err := scratchDir("probe-figures")
	if err != nil {
		return err
	}
	defer resetFigureState("", "")

	resetFigureState(dir, "")
	analyzeBefore := expt.AnalyzeStats()
	perFigure := make(map[string]float64)
	sp := c.rec.root(-1, "expt.figures_live")
	err = runSuite(io.Discard, only, sp, perFigure)
	sp.end()
	if err != nil {
		return err
	}
	for id := range probeSubset {
		r.set("expt."+id+"_s", "s", perFigure[id]) // 0 for a figure -smoke left out
	}
	r.set("expt.analyze_s", "s", (expt.AnalyzeStats() - analyzeBefore).Seconds())
	simulated, memoized := expt.MemoStats()
	r.set("expt.simulated_runs", "count", float64(simulated))
	r.set("expt.memoized_runs", "count", float64(memoized))

	resetFigureState("", dir)
	ingestBefore := expt.IngestStats()
	sp = c.rec.root(-1, "expt.figures_replay")
	err = runSuite(io.Discard, only, sp, nil)
	sp.end()
	if err != nil {
		return err
	}
	r.set("expt.ingest_s", "s", (expt.IngestStats() - ingestBefore).Seconds())
	decodes, hits := expt.ArtifactStats()
	r.set("expt.artifact_decodes", "count", float64(decodes))
	r.set("expt.artifact_hits", "count", float64(hits))
	return nil
}

// probeServer measures grainserved from outside and through /statsz: the
// upload and first request (which carries the in-place upgrade), a cold
// summary, a phase of never-seen requests (render miss, analysis hit) and
// a phase of repeated ones (render hits: the analysis layers do nothing,
// so an analysis-layer change must leave render_hit_* flat).
func probeServer(c *runCtx) error {
	r := c.res
	sv, _, err := setUpServer(c.o, false)
	if err != nil {
		return err
	}
	defer sv.srv.stop()
	if err := sv.loadReferences(); err != nil {
		return err
	}
	r.set("grainserved.upload_s", "s", sv.uploadS)
	r.set("grainserved.first_request_s", "s", sv.firstRequestS)

	if err := sv.srv.evict(); err != nil {
		return err
	}
	var getErr error
	giant := sv.arts[0].id
	r.set("grainserved.cold_summary_s", "s", c.timed("grainserved.cold_summary", 1, func() {
		_, getErr = sv.srv.get("/artifacts/" + giant + "/summary")
	}))
	if getErr != nil {
		return getErr
	}

	before, err := sv.srv.statsz()
	if err != nil {
		return err
	}
	clients := runtime.NumCPU()
	gen := newRequestGen(c.o.seed, sv.arts)
	phase := func(name string, seconds float64, next func() [][]request) error {
		var lat []float64
		sp := c.rec.root(-1, name)
		defer sp.end()
		start := time.Now()
		for time.Since(start).Seconds() < seconds {
			l, _, err := sv.runScripts(next(), sp)
			if err != nil {
				return err
			}
			lat = append(lat, l...)
		}
		r.set("grainserved."+name+"_req_per_s", "1/s", float64(len(lat))/time.Since(start).Seconds())
		r.set("grainserved."+name+"_p50_ms", "ms", 1e3*percentile(lat, 50))
		r.set("grainserved."+name+"_p99_ms", "ms", 1e3*percentile(lat, 99))
		return nil
	}
	if err := phase("novel", c.o.seconds/4, func() [][]request {
		scripts := make([][]request, clients)
		for i := range scripts {
			scripts[i] = gen.script()
		}
		return scripts
	}); err != nil {
		return err
	}
	var repeated []request
	for _, p := range sessionPaths(giant) {
		repeated = append(repeated, request{path: p})
	}
	for _, req := range repeated { // every session path rendered once
		if _, err := sv.srv.get(req.path); err != nil {
			return err
		}
	}
	mid, err := sv.srv.statsz()
	if err != nil {
		return err
	}
	if err := phase("render_hit", c.o.seconds/6, func() [][]request {
		scripts := make([][]request, clients)
		for i := range scripts {
			scripts[i] = repeated
		}
		return scripts
	}); err != nil {
		return err
	}
	after, err := sv.srv.statsz()
	if err != nil {
		return err
	}

	hit := after.since(mid)
	if lookups := hit.Hits["render"] + hit.Misses["render"]; lookups > 0 {
		r.set("grainserved.render_hit_ratio", "ratio", float64(hit.Hits["render"])/float64(lookups))
	} else {
		r.set("grainserved.render_hit_ratio", "ratio", 0)
	}
	d := after.since(before)
	r.set("grainserved.analysis_misses", "count", float64(d.Misses["analysis"]))
	r.set("grainserved.decode_misses", "count", float64(d.Misses["decode"]))
	r.set("grainserved.evictions", "count", float64(d.Evictions["decode"]+d.Evictions["analysis"]+d.Evictions["render"]))
	r.set("grainserved.admission_waits", "count", float64(d.AdmissionWaits))
	r.set("grainserved.admission_wait_ms", "ms", float64(d.AdmissionWaitMS))
	// Phase totals are since the server started: they include the upload,
	// the first analysis and the in-place upgrade, which is where the
	// decode, analyze and upgrade spans do their work.
	total := after.since(statsz{})
	for _, name := range servedPhases {
		r.set("grainserved.phase_ms."+name, "ms", float64(total.PhaseMS[name]))
	}
	_, cpu, err := sv.srv.usage()
	if err != nil {
		return err
	}
	r.set("grainserved.cpu_s", "s", cpu)
	return nil
}
