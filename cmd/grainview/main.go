// Command grainview profiles a workload on the simulated machine, builds
// its grain graph, derives the paper's metrics, and exports the graph for
// viewing (GraphML for yEd/Cytoscape, DOT for Graphviz, JSON for tooling)
// together with a problem summary.
//
// Given a positional grain-profile artifact (a .ggp file recorded with
// grainbench -record or grainview -record), grainview analyzes the saved
// trace instead of simulating: the graph, metrics, what-if projections and
// exports are byte-identical to the live run that recorded it. A second
// positional artifact supplies the 1-core baseline for work deviation.
//
// -trace writes a Perfetto/Chrome trace of the run (and its baseline):
// grain slices per worker plus steal/park/resume instants. -stats prints
// each run's runtime stats: scheduler counts, time split, cache hit rates
// and the heaviest definitions. Both are derived from the profile's
// records, so a saved artifact reports exactly what the live run does.
//
// Examples:
//
//	grainview -list
//	grainview -workload kdtree -variant before -o kdtree.graphml
//	grainview -workload sort -view parallelism -reduce -format dot -o sort.dot
//	grainview -workload fft -variant after -cores 16 -summary
//	grainview -workload fib -whatif rank
//	grainview -workload fib -whatif cutoff:4,infcores -format json -o fib.json
//	grainview -summary run.ggp            # analyze a saved artifact
//	grainview -whatif rank run.ggp base.ggp
//	grainview -workload fib -record fib.ggp -summary
//	                                      # save the simulated run as an artifact
//	grainview -trace run.json run.ggp     # Perfetto trace of a saved artifact
//	grainview -stats run.ggp base.ggp     # runtime stats of a saved run and its baseline
//	grainview -phases run.ggp             # where did the analyzer's time go?
//	grainview -selfprofile self.json run.ggp
//	                                      # Perfetto trace of the analysis itself
//	grainview -window root=R,depth=2,top=6 -format dot -o run.dot run.ggp
//	                                      # level-of-detail window over a huge run
//	grainview -query "filter benefit < 1 | sort exec desc | topk 10 | select id,loc,exec" run.ggp
//	                                      # vectorized query over the grain metrics
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"graingraph/internal/core"
	"graingraph/internal/export"
	"graingraph/internal/expt"
	"graingraph/internal/ggp"
	"graingraph/internal/lod"
	"graingraph/internal/machine"
	"graingraph/internal/obs"
	"graingraph/internal/profile"
	"graingraph/internal/query"
	"graingraph/internal/rts"
	"graingraph/internal/timeline"
	"graingraph/internal/whatif"
	"graingraph/internal/workloads"
)

// Usage strings for the three expression-valued flags; dieUsage prints the
// matching one when the expression fails to parse.
const (
	queryUsage  = `-query "[from grains|tasks |] filter <expr> | groupby <cols> | agg <calls> | sort <col> [asc|desc] | topk <n> [by <col> [asc|desc]] | select <cols>"`
	windowUsage = `-window "root=<task>,depth=<n>,top=<n>" (keys optional, order-free)`
	whatifUsage = `-whatif rank | -whatif "cutoff:<depth>,scale:<grain>:<factor>,infcores,noinflate[:<grain>]"`
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available workloads")
		workload = flag.String("workload", "fib", "workload to profile")
		variant  = flag.String("variant", "", "workload variant: before|after (default: the troubled original)")
		cores    = flag.Int("cores", 48, "simulated cores")
		flavor   = flag.String("flavor", "MIR", "runtime flavour: MIR|GCC|ICC")
		schedArg = flag.String("sched", "ws", "scheduler: ws (work-stealing) | cq (central queue)")
		policy   = flag.String("policy", "first-touch", "page placement: first-touch|round-robin|node0")
		format   = flag.String("format", "graphml", "export format: graphml|dot|json")
		view     = flag.String("view", "structure", "colour view: structure|benefit|inflation|parallelism|scatter|utilization|critical")
		reduce   = flag.Bool("reduce", false, "apply the paper's node-grouping reductions before export")
		baseline = flag.Bool("baseline", true, "also run a 1-core baseline for work deviation")
		summary  = flag.Bool("summary", false, "print the problem summary and timeline instead of exporting")
		highTab  = flag.Bool("highlight", false, "print the highlight table (per-problem counts, worst offenders, hot definitions) instead of exporting")
		out      = flag.String("o", "", "output file (default stdout)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		whatIf   = flag.String("whatif", "", "what-if analysis: \"rank\" for the auto-ranked opportunity table, or a spec list like \"cutoff:4,scale:R.0:0.5,infcores\" (see internal/whatif); projections are printed and attached to DOT/JSON exports")
		traceOut = flag.String("trace", "", "write a Perfetto/Chrome trace of the run to this file (live or saved artifact; steal/park/resume instants are derived from the profile)")
		stats    = flag.Bool("stats", false, "print the runtime stats of the run (and its baseline): scheduler counts, time split, cache hit rates, heaviest definitions (live or saved artifact; derived from the profile)")
		jobs     = flag.Int("j", 1, "worker parallelism for analysis and export (1 = serial, 0 = all cores); output is byte-identical at every -j")
		phases   = flag.Bool("phases", false, "print the analyzer's own phase table (where grainview spent its time) after the run")
		selfProf = flag.String("selfprofile", "", "write a Chrome-trace profile of the analysis run itself to this file (open at ui.perfetto.dev)")
		recOut   = flag.String("record", "", "write the run's trace as a grain-profile artifact (.ggp) to this file for later replay")
		window   = flag.String("window", "", "level-of-detail export window, e.g. \"root=R.3,depth=2,top=8\": expand the root task's subtree depth levels with the top heaviest children per task, collapse the rest into super-nodes (critical path stays exact); keys are optional and order-free")
		fullExp  = flag.Bool("full-export", false, "export every node even on huge graphs (default: graphs over 500k nodes require -window or -full-export)")
		queryStr = flag.String("query", "", "run a query plan over the analyzed run and print the result table, e.g. \"filter benefit < 1 | sort exec desc | topk 10 | select id,loc,exec\" (see internal/query for the grammar; \"from tasks\" queries the level-of-detail summary index)")
	)
	flag.Parse()

	// Expression flags parse before any simulation work so a malformed
	// query fails fast with a usage message (exit 2), not after minutes of
	// simulated execution.
	var queryPlan *query.Plan
	if *queryStr != "" {
		var err error
		queryPlan, err = query.Parse(*queryStr)
		dieUsage(err, queryUsage)
	}

	expt.SetParallelism(*jobs)

	// Self-observability: one root span covers the whole invocation, with
	// children for ingest, analysis, what-if, layout and export, so the
	// phase table attributes (nearly) all of grainview's wall time.
	// EnableSelfProfile must follow SetParallelism so the pool telemetry
	// attaches to the live pool.
	var rootSp *obs.Span
	if *phases || *selfProf != "" {
		expt.EnableSelfProfile(obs.New())
		rootSp = expt.SelfProfiler().Begin("grainview")
	}
	finishProfile := func() {
		if rootSp == nil {
			return
		}
		rootSp.End()
		rootSp = nil
		prof, err := expt.SelfProfile()
		die(err)
		if *phases {
			// The phase table follows the whatif-table convention: stderr
			// when an export is streaming to stdout, stdout otherwise.
			tableW := os.Stdout
			if !*summary && *out == "" {
				tableW = os.Stderr
			}
			die(obs.WriteTable(tableW, prof))
		}
		if *selfProf != "" {
			f, err := os.Create(*selfProf)
			die(err)
			die(export.SelfProfile(f, prof))
			die(f.Close())
			fmt.Fprintf(os.Stderr, "grainview: wrote %s (%d spans) — open at https://ui.perfetto.dev\n",
				*selfProf, len(prof.Spans))
		}
	}

	if *list {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "workload\tvariants\tdescription")
		for _, s := range workloads.Describe() {
			fmt.Fprintf(tw, "%s\t%v\t%s\n", s.Name, s.Variants, s.Description)
		}
		tw.Flush()
		return
	}

	// Two input modes: a positional .ggp artifact analyzes a saved trace
	// (no simulation, byte-identical analysis); otherwise the named
	// workload is simulated live.
	var res *expt.Result
	var base *profile.Trace
	if flag.NArg() > 0 {
		if flag.NArg() > 2 {
			die(fmt.Errorf("expected <run.ggp> [baseline.ggp], got %d arguments", flag.NArg()))
		}
		isp := rootSp.Child("ingest:ggp")
		dec, err := ggp.DecodeFile(flag.Arg(0), expt.Pool(), isp)
		die(err)
		if flag.NArg() == 2 {
			base, err = ggp.DecodeTraceFile(flag.Arg(1), expt.Pool(), isp)
			die(err)
		}
		isp.End()
		res = expt.AnalyzeDecodedOn(nil, dec, base, expt.Config{}, rootSp)
	} else {
		if *traceOut != "" || *stats {
			expt.Instr = &expt.Instrumentation{}
		}
		inst, err := workloads.Get(*workload, workloads.Variant(*variant))
		die(err)

		cfg := expt.Config{Cores: *cores, Seed: *seed, Baseline: *baseline}
		switch *flavor {
		case "MIR":
			cfg.Flavor = rts.FlavorMIR
		case "GCC":
			cfg.Flavor = rts.FlavorGCC
		case "ICC":
			cfg.Flavor = rts.FlavorICC
		default:
			die(fmt.Errorf("unknown flavor %q", *flavor))
		}
		switch *schedArg {
		case "ws":
			cfg.Scheduler = rts.WorkStealing
		case "cq":
			cfg.Scheduler = rts.CentralQueueSched
		default:
			die(fmt.Errorf("unknown scheduler %q", *schedArg))
		}
		switch *policy {
		case "first-touch":
			cfg.Policy = machine.FirstTouch
		case "round-robin":
			cfg.Policy = machine.RoundRobin
		case "node0":
			cfg.Policy = machine.Node0
		default:
			die(fmt.Errorf("unknown policy %q", *policy))
		}

		// The run child covers simulation wall time too: the simulate spans
		// themselves are separate root trees (they may execute on any pool
		// goroutine under the memo's single-flight), but this wrapper keeps
		// the grainview tree's attribution complete.
		rsp := rootSp.Child("run")
		res, err = expt.RunSpan(inst, cfg, rsp)
		rsp.End()
		die(err)
	}

	if *recOut != "" {
		rsp := rootSp.Child("record:ggp")
		die(ggp.WriteFile(*recOut, res.Trace))
		rsp.End()
		fmt.Fprintf(os.Stderr, "grainview: recorded %s (%d grains, %d cores)\n",
			*recOut, res.Trace.NumGrains(), res.Trace.Cores)
	}

	// What-if analysis: replay the recorded graph under hypothetical
	// transformations and print the projections. The table goes to stderr
	// when the export itself streams to stdout, keeping pipes clean.
	var projections []whatif.Projection
	if *whatIf != "" {
		wsp := rootSp.Child("whatif")
		if *whatIf == "rank" {
			var err error
			projections, err = expt.WhatIfRank(res, expt.Pool(), wsp)
			die(err)
		} else {
			nsp := wsp.Child("whatif:new")
			eng := whatif.New(res.Graph, res.Report)
			nsp.End()
			eng.Obs = wsp
			hs, err := whatif.ParseSpecs(*whatIf)
			dieUsage(err, whatifUsage)
			projections = eng.EvalAll(expt.Pool(), hs)
		}
		wsp.End()
		tableW := os.Stdout
		if !*summary && !*highTab && *out == "" {
			tableW = os.Stderr
		}
		die(expt.WriteWhatIfTable(tableW, res, projections))
	}

	if *traceOut != "" {
		die(writeTrace(*traceOut, loggedRuns(res, base)))
	}
	if *stats {
		die(printStats(loggedRuns(res, base)))
	}
	if *summary {
		ssp := rootSp.Child("summary")
		die(expt.WriteSummary(os.Stdout, res))
		ssp.End()
		finishProfile()
		return
	}
	if *highTab {
		hsp := rootSp.Child("highlight:table")
		die(expt.WriteHighlight(os.Stdout, res))
		hsp.End()
		finishProfile()
		return
	}
	if queryPlan != nil {
		qsp := rootSp.Child("query")
		err := expt.WritePlanSpan(os.Stdout, res, queryPlan, expt.Pool(), qsp)
		qsp.End()
		var qe *query.Error
		if errors.As(err, &qe) {
			// Binding failures (unknown column, type mismatch) surface at
			// run time but are still the query's fault: usage exit.
			dieUsage(err, queryUsage)
		}
		die(err)
		finishProfile()
		return
	}

	g := res.Graph
	if *window != "" {
		wopt, err := lod.ParseWindow(*window)
		dieUsage(err, windowUsage)
		isp := rootSp.Child("lod:index")
		ix := res.Lod()
		isp.End()
		qsp := rootSp.Child("lod:window")
		wg, wstats, err := ix.Window(wopt)
		qsp.End()
		dieUsage(err, windowUsage)
		g = wg
		fmt.Fprintf(os.Stderr, "grainview: window %s: %d tasks expanded, %d super-nodes — %d nodes, %d edges (of %d source nodes)\n",
			*window, wstats.Expanded, wstats.SuperNodes, wstats.Nodes, wstats.Edges, wstats.SourceSize)
	} else if err := export.SizeGate(g, *fullExp); err != nil {
		// The gate itself lives in the export layer (every exporter enforces
		// it); checking here too fails fast, before layout touches millions
		// of nodes.
		die(fmt.Errorf("%w — pass -window (e.g. -window depth=2,top=8) for a level-of-detail view, or -full-export to force the old behavior", err))
	}

	lsp := rootSp.Child("layout")
	if *reduce {
		g = core.ReduceAll(g)
	}
	core.Layout(g)
	lsp.End()

	var v export.View
	switch *view {
	case "structure":
		v = export.ViewStructure
	case "benefit":
		v = export.ViewParallelBenefit
	case "inflation":
		v = export.ViewWorkInflation
	case "parallelism":
		v = export.ViewParallelism
	case "scatter":
		v = export.ViewScatter
	case "utilization":
		v = export.ViewUtilization
	case "critical":
		v = export.ViewCritical
	default:
		die(fmt.Errorf("unknown view %q", *view))
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		die(err)
		defer f.Close()
		w = f
	}
	esp := rootSp.Child("export:" + *format)
	switch *format {
	case "graphml":
		if *fullExp {
			die(export.FullGraphML(w, g, res.Assessment, v))
		} else {
			die(export.GraphML(w, g, res.Assessment, v))
		}
	case "dot":
		if *fullExp {
			die(export.FullDOT(w, g, res.Assessment, v, projections, expt.Pool()))
		} else {
			die(export.DOTWithWhatIfPool(w, g, res.Assessment, v, projections, expt.Pool()))
		}
	case "json":
		if *fullExp {
			die(export.FullJSON(w, g, res.Assessment, projections, expt.Pool()))
		} else {
			die(export.JSONWithWhatIfPool(w, g, res.Assessment, projections, expt.Pool()))
		}
	default:
		die(fmt.Errorf("unknown format %q", *format))
	}
	esp.End()
	if *out != "" {
		fmt.Fprintf(os.Stderr, "grainview: wrote %s (%d nodes, %d edges, %s view)\n",
			*out, g.NumNodes(), g.NumEdges(), v)
	}
	finishProfile()
}

// loggedRuns lists the runs -trace and -stats report, baseline first: a
// live run's logged runs, or the analyzed artifact after its baseline
// artifact (if one was given).
func loggedRuns(res *expt.Result, base *profile.Trace) []export.PerfettoRun {
	var runs []export.PerfettoRun
	if expt.Instr != nil {
		for _, r := range expt.Instr.Runs {
			runs = append(runs, export.PerfettoRun{Label: r.Label, Trace: r.Trace, Critical: r.Critical})
		}
		return runs
	}
	if base != nil {
		runs = append(runs, export.PerfettoRun{Label: base.Program + " baseline", Trace: base})
	}
	return append(runs, export.PerfettoRun{Label: res.Trace.Program, Trace: res.Trace, Critical: res.Graph.CriticalGrains()})
}

// writeTrace exports the runs as one Perfetto trace file.
func writeTrace(path string, runs []export.PerfettoRun) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := export.Perfetto(f, runs); err != nil {
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "grainview: wrote %s (%d runs) — open at https://ui.perfetto.dev\n",
		path, len(runs))
	return nil
}

// printStats renders each run's stats report.
func printStats(runs []export.PerfettoRun) error {
	for _, r := range runs {
		fmt.Printf("runtime stats — %s\n", r.Label)
		if err := timeline.StatsFromTrace(r.Trace).Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func die(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "grainview: %v\n", err)
		os.Exit(1)
	}
}

// dieUsage is the shared fail helper for the expression-valued flags
// (-query, -window, -whatif): a malformed expression is the invocation's
// fault, so it reports the error with the flag's usage line and exits 2 —
// the usage-error convention — rather than the generic failure exit 1 (or,
// worse, a panic) the parse sites used to produce inconsistently.
func dieUsage(err error, usage string) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "grainview: %v\nusage: grainview %s\n", err, usage)
		os.Exit(2)
	}
}
