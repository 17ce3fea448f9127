// Command grainbench regenerates the paper's tables and figures on the
// simulated 48-core machine and prints them as console tables.
//
// Usage:
//
//	grainbench               # run everything
//	grainbench -fig 1        # only Figure 1
//	grainbench -fig sort     # only the Sort problem table (§4.3.1)
//	grainbench -fig whatif   # what-if opportunity tables (what would a
//	                         # perfect cutoff / optimized grain buy?).
//	                         # Hypotheses evaluate incrementally (sparse
//	                         # delta DP, DESIGN.md §11); -phases/-benchjson
//	                         # break the cost out as whatif:eval spans
//	grainbench -whatif       # full run plus the what-if tables
//	grainbench -cores 16     # override the core count for Figure 1
//	grainbench -j 8          # at most 8 simulations in flight (-j 1: serial)
//	grainbench -benchjson BENCH_all.json
//	                         # record per-figure wall time + engine stats
//	grainbench -fig sort -trace sort.json -stats
//	                         # + Perfetto trace and runtime-metrics footers
//	grainbench -record runs/ # additionally save every simulation as a
//	                         # .ggp artifact named by its content key
//	grainbench -replay runs/ # analyze saved artifacts instead of
//	                         # simulating (byte-identical output)
//
// Figure IDs: 1, 2, 4, 5, 6, 7, 8, 9 (covers 9/10 + Table 1), 11,
// "sort" (the §4.3.1 table), "others" (§4.3.6).
//
// Simulation runs are deterministic, memoized and independent, so figures
// fan their runs across -j workers (default: all CPUs) and the printed
// tables are byte-identical at every -j, including -j 1.
//
// -trace writes every simulated run of the selected figures as one
// Chrome-trace JSON file, openable at ui.perfetto.dev: one process per
// run, one thread track per worker, grain slices labelled
// file:line(func), steal/park/resume instants, critical-path grains
// flagged. The instants are derived from each run's profile, so a saved
// artifact exports the same trace: grainview -trace out.json run.ggp.
// -stats appends a runtime-metrics footer (steals, parks, cache hit
// rates) to each figure so reproduction runs double as health reports.
// The footers are derived from the profiles too, so -stats -replay prints
// the live run's footers without simulating.
//
// A figure step that fails is reported with its figure ID and the
// remaining steps still run; the exit code is non-zero if any failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"graingraph/internal/benchfmt"
	"graingraph/internal/export"
	"graingraph/internal/expt"
	"graingraph/internal/obs"
)

func main() {
	fig := flag.String("fig", "all", "figure/table to regenerate (1,2,4,5,6,7,8,9,11,sort,others,whatif,all; none with -ingestbench skips the figures)")
	cores := flag.Int("cores", 48, "core count for speedup experiments")
	whatIf := flag.Bool("whatif", false, "append the what-if opportunity tables to a full run (same as -fig whatif, but alongside the figures)")
	jobs := flag.Int("j", 0, "max simulations in flight; 1 = serial, <=0 = all CPUs")
	benchOut := flag.String("benchjson", "", "write a per-figure wall-time/engine-stats benchmark report (with phase and run-pool breakdowns) to this JSON file")
	record := flag.String("record", "", "write every keyed simulation of the selected figures as a grain-profile artifact (<hex key>.ggp) into this directory")
	replay := flag.String("replay", "", "load simulations from grain-profile artifacts in this directory instead of executing them (missing artifacts simulate live)")
	ggpV2 := flag.Bool("ggp-v2", false, "record artifacts in the columnar v2 format (decodes to an analysis-ready graph without event parsing; use with -record)")
	ggpconv := flag.String("ggpconv", "", "convert the given .ggp artifact (either version) to columnar v2 with derived sidecars and exit")
	ggpconvOut := flag.String("ggpconv-out", "", "output path for -ggpconv (default: <src>.v2.ggp)")
	ingestPath := flag.String("ingestbench", "", "measure cold artifact-ingest time (v1 vs columnar v2 vs v2+sidecars) for the given .ggp at -j 1 and the active -j, print a table, and add the numbers to -benchjson; use -fig none to skip the figures")
	ingestJobs := flag.String("ingest-jobs", "", "comma-separated decode worker counts for -ingestbench (overrides the default of 1 and the active -j, so the figure suite and the ingest sweep can run at different parallelism)")
	traceOut := flag.String("trace", "", "write a Perfetto/Chrome trace of all simulated runs to this file (steal/park/resume instants are derived from the profiles; for a saved artifact use grainview -trace)")
	stats := flag.Bool("stats", false, "print a runtime-metrics footer after each figure (derived from the profiles, so it also works with -replay)")
	phases := flag.Bool("phases", false, "print the engine's own phase table (simulate/analyze/ingest breakdown) after the run")
	selfProf := flag.String("selfprofile", "", "write a Chrome-trace profile of the benchmark run itself to this file (open at ui.perfetto.dev)")
	flag.Parse()

	expt.SetParallelism(*jobs)
	if *ggpconv != "" {
		if *phases {
			expt.EnableSelfProfile(obs.New())
		}
		err := convertArtifact(*ggpconv, *ggpconvOut)
		if err == nil && *phases {
			// Decode, analysis, and the upgrade split into deriving the
			// sidecars and streaming the file.
			var prof *obs.Profile
			if prof, err = expt.SelfProfile(); err == nil {
				err = obs.WriteTable(os.Stdout, prof)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "grainbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	expt.SetRecordV2(*ggpV2)
	if *record != "" {
		expt.SetRecordDir(*record)
	}
	if *replay != "" {
		expt.SetReplayDir(*replay)
	}
	// -benchjson reports the phase breakdown, so it profiles implicitly.
	// EnableSelfProfile must follow SetParallelism so the run-pool
	// telemetry attaches to the live pool.
	profiling := *phases || *selfProf != "" || *benchOut != ""
	if profiling {
		expt.EnableSelfProfile(obs.New())
	}
	if *traceOut != "" || *stats {
		expt.Instr = &expt.Instrumentation{PrintFooter: *stats}
	}

	type step struct {
		id  string
		run func() error
	}
	w := os.Stdout
	steps := []step{
		{"1", func() error { _, err := expt.Figure1(w, *cores); return err }},
		{"2", func() error { _, err := expt.Figure2(w); return err }},
		{"4", func() error { _, err := expt.Figure4(w); return err }},
		{"5", func() error { _, err := expt.Figure5(w); return err }},
		{"sort", func() error { _, err := expt.SortPageTable(w); return err }},
		{"6", func() error { _, err := expt.Figure6(w); return err }},
		{"7", func() error { _, err := expt.Figure7(w); return err }},
		{"8", func() error { _, err := expt.Figure8(w); return err }},
		{"9", func() error { _, err := expt.Figure9Table1(w); return err }},
		{"11", func() error { _, err := expt.Figure11(w); return err }},
		{"others", func() error { _, err := expt.OtherBenchmarks(w); return err }},
		{"whatif", func() error { _, err := expt.WhatIfTable(w); return err }},
	}
	ran := false
	var failed []string
	var report benchfmt.Report
	start := time.Now()
	for _, s := range steps {
		// The what-if pass is opt-in: it runs for -fig whatif, or rides along
		// a full regeneration when -whatif is set.
		if s.id == "whatif" && *fig != "whatif" && !(*whatIf && *fig == "all") {
			continue
		}
		if *fig != "all" && *fig != s.id {
			continue
		}
		ran = true
		simBefore, memoBefore := expt.MemoStats()
		analyzeBefore := expt.AnalyzeStats()
		ingestBefore := expt.IngestStats()
		artBefore := expt.ArtifactCounters()
		figStart := time.Now()
		err := s.run()
		fr := benchfmt.Figure{
			ID:        s.id,
			OK:        err == nil,
			WallMS:    float64(time.Since(figStart)) / float64(time.Millisecond),
			AnalyzeMS: float64(expt.AnalyzeStats()-analyzeBefore) / float64(time.Millisecond),
			IngestMS:  float64(expt.IngestStats()-ingestBefore) / float64(time.Millisecond),
		}
		sim, memo := expt.MemoStats()
		fr.Simulated = sim - simBefore
		fr.Memoized = memo - memoBefore
		art := expt.ArtifactCounters()
		fr.ArtifactDecodes = art.Misses - artBefore.Misses
		fr.ArtifactHits = art.Hits - artBefore.Hits
		report.Figures = append(report.Figures, fr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "grainbench: figure %s: %v\n", s.id, err)
			failed = append(failed, s.id)
			continue
		}
		fmt.Fprintln(w)
	}
	if *ingestPath != "" {
		ran = true
	}
	if !ran && *fig != "none" {
		fmt.Fprintf(os.Stderr, "grainbench: unknown figure %q\n", *fig)
		os.Exit(2)
	}

	var selfProfile *obs.Profile
	if profiling {
		var err error
		selfProfile, err = expt.SelfProfile()
		if err != nil {
			fmt.Fprintf(os.Stderr, "grainbench: self-profile: %v\n", err)
			failed = append(failed, "selfprofile")
		}
	}
	if *phases && selfProfile != nil {
		if err := obs.WriteTable(w, selfProfile); err != nil {
			fmt.Fprintf(os.Stderr, "grainbench: %v\n", err)
			failed = append(failed, "phases")
		}
	}
	if *selfProf != "" && selfProfile != nil {
		if err := writeSelfProfile(*selfProf, selfProfile); err != nil {
			fmt.Fprintf(os.Stderr, "grainbench: %v\n", err)
			failed = append(failed, "selfprofile")
		}
	}
	// Freeze the figure suite's stats before the ingest bench runs: its
	// derivation work (a full analysis of the benched artifact plus dozens
	// of giant decodes) would otherwise leak into the committed wall and
	// phase numbers and make reports incomparable across baselines. The
	// self-profile snapshot above already excludes it for the same reason.
	report.Parallelism = expt.Parallelism()
	report.Cores = *cores
	report.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	report.AnalyzeMS = float64(expt.AnalyzeStats()) / float64(time.Millisecond)
	report.IngestMS = float64(expt.IngestStats()) / float64(time.Millisecond)
	report.Simulated, report.Memoized = expt.MemoStats()
	if selfProfile != nil {
		report.Phases = benchfmt.Phases(selfProfile)
		report.Runpool = selfProfile.Pool
	}

	if *ingestPath != "" {
		jset := []int{1}
		if j := expt.Parallelism(); j != 1 {
			jset = append(jset, j)
		}
		if *ingestJobs != "" {
			jset = jset[:0]
			for _, f := range strings.Split(*ingestJobs, ",") {
				j, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil || j < 1 {
					fmt.Fprintf(os.Stderr, "grainbench: bad -ingest-jobs %q\n", *ingestJobs)
					os.Exit(2)
				}
				jset = append(jset, j)
			}
		}
		var entries []benchfmt.IngestEntry
		for _, j := range jset {
			es, err := ingestBench(*ingestPath, j)
			if err != nil {
				fmt.Fprintf(os.Stderr, "grainbench: %v\n", err)
				failed = append(failed, "ingestbench")
				break
			}
			entries = append(entries, es...)
		}
		if len(entries) > 0 {
			writeIngestTable(entries)
			report.Ingest = entries
		}
	}

	if *benchOut != "" {
		if err := writeBenchJSON(*benchOut, &report); err != nil {
			fmt.Fprintf(os.Stderr, "grainbench: %v\n", err)
			failed = append(failed, "benchjson")
		}
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "grainbench: %v\n", err)
			failed = append(failed, "trace")
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "grainbench: %d step(s) failed: %s\n",
			len(failed), strings.Join(failed, ", "))
		os.Exit(1)
	}
}

// writeBenchJSON writes the benchmark report (conventionally named
// BENCH_<date>.json) for regression tracking across commits; benchdiff
// compares two of them.
func writeBenchJSON(path string, r *benchfmt.Report) error {
	if err := benchfmt.Write(path, r); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "grainbench: wrote %s (%d figures, %.0f ms, %d simulated / %d memoized runs, %d phases)\n",
		path, len(r.Figures), r.WallMS, r.Simulated, r.Memoized, len(r.Phases))
	return nil
}

// writeSelfProfile exports the engine's own phase spans as a Chrome trace.
func writeSelfProfile(path string, prof *obs.Profile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := export.SelfProfile(f, prof); err != nil {
		return fmt.Errorf("writing self-profile %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "grainbench: wrote %s (%d spans) — open at https://ui.perfetto.dev\n",
		path, len(prof.Spans))
	return nil
}

// writeTrace exports every logged run as one Perfetto trace file.
func writeTrace(path string) error {
	runs := make([]export.PerfettoRun, 0, len(expt.Instr.Runs))
	for _, r := range expt.Instr.Runs {
		runs = append(runs, export.PerfettoRun{
			Label: r.Label, Trace: r.Trace, Critical: r.Critical,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := export.Perfetto(f, runs); err != nil {
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "grainbench: wrote %s (%d runs) — open at https://ui.perfetto.dev\n",
		path, len(runs))
	return nil
}
