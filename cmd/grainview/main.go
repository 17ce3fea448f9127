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
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"
	"text/tabwriter"

	"graingraph/internal/core"
	"graingraph/internal/export"
	"graingraph/internal/expt"
	"graingraph/internal/ggp"
	"graingraph/internal/lod"
	"graingraph/internal/machine"
	"graingraph/internal/obs"
	"graingraph/internal/query"
	"graingraph/internal/rts"
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

// The values of the enumerated flags, by name.
var (
	flavors    = map[string]rts.Flavor{"MIR": rts.FlavorMIR, "GCC": rts.FlavorGCC, "ICC": rts.FlavorICC}
	schedulers = map[string]rts.SchedulerKind{"ws": rts.WorkStealing, "cq": rts.CentralQueueSched}
	policies   = map[string]machine.Policy{"first-touch": machine.FirstTouch, "round-robin": machine.RoundRobin, "node0": machine.Node0}
	colourings = map[string]export.View{
		"structure": export.ViewStructure, "benefit": export.ViewParallelBenefit,
		"inflation": export.ViewWorkInflation, "parallelism": export.ViewParallelism,
		"scatter": export.ViewScatter, "utilization": export.ViewUtilization,
		"critical": export.ViewCritical,
	}
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// exitCode unwinds a run from die or dieUsage; run recovers it as the exit
// status.
type exitCode int

// run is the whole command: it parses args, writes the views to stdout and
// diagnostics to stderr, and returns the exit code — 1 when a step fails,
// 2 for a bad flag or a malformed -query, -window or -whatif expression.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list available workloads")
		workload = fs.String("workload", "fib", "workload to profile")
		variant  = fs.String("variant", "", "workload variant: before|after (default: the troubled original)")
		cores    = fs.Int("cores", 48, "simulated cores")
		flavor   = fs.String("flavor", "MIR", "runtime flavour: MIR|GCC|ICC")
		schedArg = fs.String("sched", "ws", "scheduler: ws (work-stealing) | cq (central queue)")
		policy   = fs.String("policy", "first-touch", "page placement: first-touch|round-robin|node0")
		format   = fs.String("format", "graphml", "export format: graphml|dot|json")
		view     = fs.String("view", "structure", "colour view: structure|benefit|inflation|parallelism|scatter|utilization|critical")
		reduce   = fs.Bool("reduce", false, "apply the paper's node-grouping reductions before export")
		baseline = fs.Bool("baseline", true, "also run a 1-core baseline for work deviation")
		summary  = fs.Bool("summary", false, "print the problem summary and timeline instead of exporting")
		highTab  = fs.Bool("highlight", false, "print the highlight table (per-problem counts, worst offenders, hot definitions) instead of exporting")
		out      = fs.String("o", "", "output file (default stdout)")
		seed     = fs.Uint64("seed", 1, "simulation seed")
		whatIf   = fs.String("whatif", "", "what-if analysis: \"rank\" for the auto-ranked opportunity table, or a spec list like \"cutoff:4,scale:R.0:0.5,infcores\" (see internal/whatif); projections are printed and attached to DOT/JSON exports")
		traceOut = fs.String("trace", "", "write a Perfetto/Chrome trace of the run to this file (live or saved artifact; steal/park/resume instants are derived from the profile)")
		stats    = fs.Bool("stats", false, "print the runtime stats of the run (and its baseline): scheduler counts, time split, cache hit rates, heaviest definitions (live or saved artifact; derived from the profile)")
		jobs     = fs.Int("j", 1, "worker parallelism for analysis and export (1 = serial, 0 = all cores); output is byte-identical at every -j")
		phases   = fs.Bool("phases", false, "print the analyzer's own phase table (where grainview spent its time) after the run")
		selfProf = fs.String("selfprofile", "", "write a Chrome-trace profile of the analysis run itself to this file (open at ui.perfetto.dev)")
		recOut   = fs.String("record", "", "write the run's trace as a grain-profile artifact (.ggp) to this file for later replay")
		window   = fs.String("window", "", "level-of-detail export window, e.g. \"root=R.3,depth=2,top=8\": expand the root task's subtree depth levels with the top heaviest children per task, collapse the rest into super-nodes (critical path stays exact); keys are optional and order-free")
		fullExp  = fs.Bool("full-export", false, "export every node even on huge graphs (default: graphs over 500k nodes require -window or -full-export)")
		queryStr = fs.String("query", "", "run a query plan over the analyzed run and print the result table, e.g. \"filter benefit < 1 | sort exec desc | topk 10 | select id,loc,exec\" (see internal/query for the grammar; \"from tasks\" queries the level-of-detail summary index)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	defer func() {
		if v := recover(); v != nil {
			c, ok := v.(exitCode)
			if !ok {
				panic(v)
			}
			code = int(c)
		}
	}()
	// die fails the run with exit status 1 when err is non-nil. dieUsage
	// fails a malformed expression flag, the invocation's fault: it prints
	// the flag's usage line and exits 2, the usage-error convention.
	fail := func(code exitCode, err error, usage string) {
		if err != nil {
			fmt.Fprintf(stderr, "grainview: %v\n%s", err, usage)
			panic(code)
		}
	}
	die := func(err error) { fail(1, err, "") }
	dieUsage := func(err error, usage string) { fail(2, err, "usage: grainview "+usage+"\n") }

	// Expression flags parse before any simulation work so a malformed
	// query fails fast with a usage message (exit 2), not after minutes of
	// simulated execution.
	queryParams, err := expt.LookupView("query").Parse(url.Values{"q": {*queryStr}})
	if *queryStr != "" {
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
			tableW := stdout
			if !*summary && *out == "" {
				tableW = stderr
			}
			die(obs.WriteTable(tableW, prof))
		}
		if *selfProf != "" {
			var b bytes.Buffer
			die(export.SelfProfile(&b, prof))
			die(os.WriteFile(*selfProf, b.Bytes(), 0o666))
			fmt.Fprintf(stderr, "grainview: wrote %s (%d spans) — open at https://ui.perfetto.dev\n",
				*selfProf, len(prof.Spans))
		}
	}

	if *list {
		tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "workload\tvariants\tdescription")
		for _, s := range workloads.Describe() {
			fmt.Fprintf(tw, "%s\t%v\t%s\n", s.Name, s.Variants, s.Description)
		}
		tw.Flush()
		return 0
	}

	// Two input modes: a positional .ggp artifact analyzes a saved trace
	// (no simulation, byte-identical analysis); otherwise the named
	// workload is simulated live. Either way the views render one subject.
	sub := &expt.Subject{}
	if fs.NArg() > 0 {
		if fs.NArg() > 2 {
			die(fmt.Errorf("expected <run.ggp> [baseline.ggp], got %d arguments", fs.NArg()))
		}
		isp := rootSp.Child("ingest:ggp")
		dec, err := ggp.DecodeFile(fs.Arg(0), expt.Pool(), isp)
		die(err)
		if fs.NArg() == 2 {
			sub.Baseline, err = ggp.DecodeTraceFile(fs.Arg(1), expt.Pool(), isp)
			die(err)
		}
		isp.End()
		sub.Res = expt.AnalyzeDecodedOn(nil, dec, sub.Baseline, expt.Config{}, rootSp)
	} else {
		// -trace and -stats report the live run's log.
		expt.Instr = nil
		if *traceOut != "" || *stats {
			expt.Instr = &expt.Instrumentation{}
		}
		inst, err := workloads.Get(*workload, workloads.Variant(*variant))
		die(err)
		cfg := expt.Config{Cores: *cores, Seed: *seed, Baseline: *baseline}
		cfg.Flavor = lookup(die, "flavor", *flavor, flavors)
		cfg.Scheduler = lookup(die, "scheduler", *schedArg, schedulers)
		cfg.Policy = lookup(die, "policy", *policy, policies)

		// The run child covers simulation wall time too: the simulate spans
		// themselves are separate root trees (they may execute on any pool
		// goroutine under the memo's single-flight), but this wrapper keeps
		// the grainview tree's attribution complete.
		rsp := rootSp.Child("run")
		sub.Res, err = expt.RunSpan(inst, cfg, rsp)
		rsp.End()
		die(err)
		if expt.Instr != nil {
			sub.Log = expt.Instr.Runs
		}
	}
	res := sub.Res
	// render renders one view of the subject.
	render := func(view string, p expt.Params) []byte {
		vsp := rootSp.Child("view:" + view)
		b, err := expt.LookupView(view).Render(sub, p, expt.Pool(), vsp)
		vsp.End()
		var qe *query.Error
		if errors.As(err, &qe) {
			// Binding failures (unknown column, type mismatch) surface at
			// run time but are still the query's fault: usage exit.
			dieUsage(err, queryUsage)
		}
		die(err)
		return b
	}
	show := func(view string, p expt.Params) {
		_, err := stdout.Write(render(view, p))
		die(err)
	}

	if *recOut != "" {
		rsp := rootSp.Child("record:ggp")
		die(ggp.WriteFile(*recOut, res.Trace))
		rsp.End()
		fmt.Fprintf(stderr, "grainview: recorded %s (%d grains, %d cores)\n",
			*recOut, res.Trace.NumGrains(), res.Trace.Cores)
	}

	// What-if analysis: replay the recorded graph under hypothetical
	// transformations and print the projections, which DOT and JSON exports
	// also carry. The table goes to stderr when the export itself streams to
	// stdout, keeping pipes clean.
	var projections []whatif.Projection
	if *whatIf != "" {
		p, err := expt.LookupView("whatif").Parse(url.Values{"spec": {*whatIf}})
		dieUsage(err, whatifUsage)
		projections, err = expt.Projections(res, p, expt.Pool(), rootSp)
		die(err)
		tableW := stdout
		if !*summary && !*highTab && *out == "" {
			tableW = stderr
		}
		die(expt.WriteWhatIfTable(tableW, res, projections))
	}

	if *traceOut != "" {
		die(os.WriteFile(*traceOut, render("trace", expt.Params{}), 0o666))
		fmt.Fprintf(stderr, "grainview: wrote %s (%d runs) — open at https://ui.perfetto.dev\n",
			*traceOut, len(sub.Runs()))
	}
	if *stats {
		show("stats", expt.Params{})
	}
	// A report view replaces the graph export; the first flag wins.
	report := ""
	switch {
	case *summary:
		report = "summary"
	case *highTab:
		report = "highlight"
	case *queryStr != "":
		report = "query"
	}
	if report != "" {
		show(report, queryParams) // summary and highlight read no params
		finishProfile()
		return 0
	}

	g := res.Graph
	if *window != "" {
		wopt, err := lod.ParseWindow(*window)
		dieUsage(err, windowUsage)
		wg, wstats, err := expt.Window(res, wopt, rootSp)
		dieUsage(err, windowUsage)
		g = wg
		fmt.Fprintf(stderr, "grainview: window %s: %d tasks expanded, %d super-nodes — %d nodes, %d edges (of %d source nodes)\n",
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

	v := lookup(die, "view", *view, colourings)
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		die(err)
		defer f.Close()
		w = f
	}
	esp := rootSp.Child("export:" + *format)
	die(expt.WriteGraph(w, g, res, *format, v, projections, *fullExp, expt.Pool()))
	esp.End()
	if *out != "" {
		fmt.Fprintf(stderr, "grainview: wrote %s (%d nodes, %d edges, %s view)\n",
			*out, g.NumNodes(), g.NumEdges(), v)
	}
	finishProfile()
	return 0
}

// lookup resolves an enumerated flag's value by name, failing through die.
func lookup[T any](die func(error), what, name string, values map[string]T) T {
	v, ok := values[name]
	if !ok {
		die(fmt.Errorf("unknown %s %q", what, name))
	}
	return v
}
