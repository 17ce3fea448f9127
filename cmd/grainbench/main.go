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
//	                         # delta DP, DESIGN.md §11); -phases breaks
//	                         # the cost out as whatif:eval spans
//	grainbench -whatif       # full run plus the what-if tables
//	grainbench -cores 16     # override the core count for Figure 1
//	grainbench -j 8          # at most 8 simulations in flight (-j 1: serial)
//	grainbench -fig 2 -phases
//	                         # + the engine's phase table and memo
//	                         # hit/miss counts
//	grainbench -fig sort -trace sort.json -stats
//	                         # + Perfetto trace and runtime-metrics footers
//	grainbench -record runs/ # additionally save every simulation as a
//	                         # v1 .ggp artifact named by its content key
//	grainbench -ggpconv runs/<key>.ggp
//	                         # upgrade one artifact to columnar v2 with
//	                         # derived sidecars
//	grainbench -replay runs/ # analyze saved artifacts instead of
//	                         # simulating (byte-identical output)
//
// Figure IDs: 1, 2, 4, 5, 6, 7, 8, 9 (covers 9/10 + Table 1), 11,
// "sort" (the §4.3.1 table), "others" (§4.3.6) — the steps of
// expt.Figures, in their order.
//
// Simulation runs are deterministic, memoized and independent, so figures
// fan their runs across -j workers (default: all CPUs) and the printed
// tables are byte-identical at every -j, including -j 1.
//
// Each figure returns the runs it requested — simulated, memoized or
// replayed — in request order, and -trace and -stats read only those.
// -trace writes the runs of the selected figures as one
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
// Performance is measured by the repository's benchmark (go run ./bench),
// not by this command: -phases and -selfprofile only show where one run's
// time went.
//
// A figure step that fails is reported with its figure ID and the
// remaining steps still run; the exit code is 1 if any failed, 2 for an
// unknown figure or a bad flag.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"graingraph/internal/export"
	"graingraph/internal/expt"
	"graingraph/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the figures to stdout
// and diagnostics to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("grainbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "figure/table to regenerate (1,2,4,5,6,7,8,9,11,sort,others,whatif,all)")
	cores := fs.Int("cores", 48, "core count for speedup experiments")
	whatIf := fs.Bool("whatif", false, "append the what-if opportunity tables to a full run (same as -fig whatif, but alongside the figures)")
	jobs := fs.Int("j", 0, "max simulations in flight; 1 = serial, <=0 = all CPUs")
	record := fs.String("record", "", "write every keyed simulation of the selected figures as a grain-profile artifact (<hex key>.ggp) into this directory")
	replay := fs.String("replay", "", "load simulations from grain-profile artifacts in this directory instead of executing them (missing artifacts simulate live)")
	ggpconv := fs.String("ggpconv", "", "convert the given .ggp artifact (either version) to columnar v2 with derived sidecars and exit")
	ggpconvOut := fs.String("ggpconv-out", "", "output path for -ggpconv (default: <src>.v2.ggp)")
	traceOut := fs.String("trace", "", "write a Perfetto/Chrome trace of all simulated runs to this file (steal/park/resume instants are derived from the profiles; for a saved artifact use grainview -trace)")
	stats := fs.Bool("stats", false, "print a runtime-metrics footer after each figure (derived from the profiles, so it also works with -replay)")
	phases := fs.Bool("phases", false, "print the engine's own phase table (simulate/analyze/ingest breakdown) after the run")
	selfProf := fs.String("selfprofile", "", "write a Chrome-trace profile of the benchmark run itself to this file (open at ui.perfetto.dev)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	expt.SetParallelism(*jobs)
	if *ggpconv != "" {
		if *phases {
			expt.EnableSelfProfile(obs.New())
		}
		err := convertArtifact(stderr, *ggpconv, *ggpconvOut)
		if err == nil && *phases {
			// Decode, analysis, and the upgrade split into deriving the
			// sidecars and streaming the file.
			var prof *obs.Profile
			if prof, err = expt.SelfProfile(); err == nil {
				err = obs.WriteTable(stdout, prof)
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "grainbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *record != "" {
		expt.SetRecordDir(*record)
	}
	if *replay != "" {
		expt.SetReplayDir(*replay)
	}
	// EnableSelfProfile must follow SetParallelism so the run-pool
	// telemetry attaches to the live pool.
	profiling := *phases || *selfProf != ""
	if profiling {
		expt.EnableSelfProfile(obs.New())
	}

	w := stdout
	steps := append(slices.Clone(expt.Figures), expt.WhatIfFigure)
	ran := false
	var failed []string
	var traced []export.PerfettoRun
	for _, s := range steps {
		// The what-if pass is opt-in: it runs for -fig whatif, or rides along
		// a full regeneration when -whatif is set.
		if s.ID == "whatif" && *fig != "whatif" && !(*whatIf && *fig == "all") {
			continue
		}
		if *fig != "all" && *fig != s.ID {
			continue
		}
		ran = true
		runs, err := s.Run(w, *cores)
		if err != nil {
			fmt.Fprintf(stderr, "grainbench: figure %s: %v\n", s.ID, err)
			failed = append(failed, s.ID)
			continue
		}
		if *stats {
			expt.WriteFooter(w, runs)
		}
		if *traceOut != "" {
			traced = append(traced, expt.PerfettoRuns(runs)...)
		}
		fmt.Fprintln(w)
	}
	if !ran {
		fmt.Fprintf(stderr, "grainbench: unknown figure %q\n", *fig)
		return 2
	}

	var selfProfile *obs.Profile
	if profiling {
		var err error
		selfProfile, err = expt.SelfProfile()
		if err != nil {
			fmt.Fprintf(stderr, "grainbench: self-profile: %v\n", err)
			failed = append(failed, "selfprofile")
		}
	}
	if *phases && selfProfile != nil {
		if err := obs.WriteTable(w, selfProfile); err != nil {
			fmt.Fprintf(stderr, "grainbench: %v\n", err)
			failed = append(failed, "phases")
		}
		simulated, memoized := expt.MemoStats()
		recorded, replayed := expt.FactStats()
		fmt.Fprintf(w, "  runs: %d simulated / %d memoized; input facts: %d recorded / %d replayed\n",
			simulated, memoized, recorded, replayed)
	}
	if *selfProf != "" && selfProfile != nil {
		if err := writeSelfProfile(stderr, *selfProf, selfProfile); err != nil {
			fmt.Fprintf(stderr, "grainbench: %v\n", err)
			failed = append(failed, "selfprofile")
		}
	}
	if *traceOut != "" {
		if err := writeTrace(stderr, *traceOut, traced); err != nil {
			fmt.Fprintf(stderr, "grainbench: %v\n", err)
			failed = append(failed, "trace")
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(stderr, "grainbench: %d step(s) failed: %s\n",
			len(failed), strings.Join(failed, ", "))
		return 1
	}
	return 0
}

// convertArtifact is the -ggpconv path: read src (either format), analyze
// it once, and write a columnar v2 artifact with full derived sidecars.
func convertArtifact(stderr io.Writer, src, dst string) error {
	if dst == "" {
		ext := filepath.Ext(src)
		dst = src[:len(src)-len(ext)] + ".v2" + ext
	}
	if err := expt.UpgradeArtifact(src, dst, expt.Pool()); err != nil {
		return err
	}
	fi, _ := os.Stat(dst)
	fmt.Fprintf(stderr, "grainbench: converted %s -> %s (%d bytes, columnar v2 + sidecars)\n", src, dst, fi.Size())
	return nil
}

// writeSelfProfile exports the engine's own phase spans as a Chrome trace.
func writeSelfProfile(stderr io.Writer, path string, prof *obs.Profile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := export.SelfProfile(f, prof); err != nil {
		return fmt.Errorf("writing self-profile %s: %w", path, err)
	}
	fmt.Fprintf(stderr, "grainbench: wrote %s (%d spans) — open at https://ui.perfetto.dev\n",
		path, len(prof.Spans))
	return nil
}

// writeTrace exports the figures' runs as one Perfetto trace file.
func writeTrace(stderr io.Writer, path string, runs []export.PerfettoRun) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := export.Perfetto(f, runs); err != nil {
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	fmt.Fprintf(stderr, "grainbench: wrote %s (%d runs) — open at https://ui.perfetto.dev\n",
		path, len(runs))
	return nil
}
