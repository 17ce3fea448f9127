package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"graingraph/internal/expt"
)

// The figures workload is the paper reproduction's own wait: the whole
// `grainbench -fig all` suite. Cold simulates every run live and records
// v1 artifacts; warm replays the same suite from those artifacts, so the
// simulator does all of the cold work and none of the warm.

type figureStep struct {
	id  string
	run func(w io.Writer) error
}

// figureSteps is grainbench's -fig all set, in its order.
var figureSteps = []figureStep{
	{"fig1", func(w io.Writer) error { _, err := expt.Figure1(w, simulatedCores); return err }},
	{"fig2", func(w io.Writer) error { _, err := expt.Figure2(w); return err }},
	{"fig4", func(w io.Writer) error { _, err := expt.Figure4(w); return err }},
	{"fig5", func(w io.Writer) error { _, err := expt.Figure5(w); return err }},
	{"sort_table", func(w io.Writer) error { _, err := expt.SortPageTable(w); return err }},
	{"fig6", func(w io.Writer) error { _, err := expt.Figure6(w); return err }},
	{"fig7", func(w io.Writer) error { _, err := expt.Figure7(w); return err }},
	{"fig8", func(w io.Writer) error { _, err := expt.Figure8(w); return err }},
	{"fig9", func(w io.Writer) error { _, err := expt.Figure9Table1(w); return err }},
	{"fig11", func(w io.Writer) error { _, err := expt.Figure11(w); return err }},
	{"others", func(w io.Writer) error { _, err := expt.OtherBenchmarks(w); return err }},
}

// warmupFigures is the figures workload's set-up: the cheap figures run
// once and are thrown away, so the heap, the page tables and the
// simulator's code paths are touched before the one long cold op.
var warmupFigures = map[string]bool{"fig2": true, "fig4": true, "fig6": true, "fig7": true}

// smokeFigures is what -smoke regenerates.
var smokeFigures = map[string]bool{"fig2": true}

// runSuite regenerates the selected figures (nil selects all) the way
// grainbench prints them. Every figure's error carries inst.Verify()
// against the sequential reference, so a nil error is a verified figure.
// perFigure, when non-nil, receives each figure's wall time.
func runSuite(w io.Writer, only map[string]bool, sp *span, perFigure map[string]float64) error {
	for _, step := range figureSteps {
		if only != nil && !only[step.id] {
			continue
		}
		c := sp.child("expt." + step.id)
		start := time.Now()
		err := step.run(w)
		if perFigure != nil {
			perFigure[step.id] = time.Since(start).Seconds()
		}
		c.end()
		if err != nil {
			return fmt.Errorf("figure %s: %w", step.id, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// resetFigureState makes the next suite run do all its work again, live
// (record into recordDir) or from artifacts (replay from replayDir).
func resetFigureState(recordDir, replayDir string) {
	expt.ResetMemo()
	expt.ResetArtifactMemo()
	expt.SetRecordDir(recordDir)
	expt.SetReplayDir(replayDir)
}

func runFigures(c *runCtx) error {
	var only map[string]bool // nil: the whole suite
	warmup := warmupFigures
	if c.o.smoke {
		only, warmup = smokeFigures, smokeFigures
	}
	defer resetFigureState("", "")

	start := time.Now()
	if err := runSuite(io.Discard, warmup, nil, nil); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	c.res.set("setup_s", "s", time.Since(start).Seconds())

	var (
		recordDir string
		out       bytes.Buffer
		perFigure = make(map[string]float64)
	)
	cold := op{
		kind: "cold",
		prep: func() error {
			// A fresh record directory per cold op: the op's cost
			// includes writing every artifact.
			if recordDir != "" {
				if err := os.RemoveAll(recordDir); err != nil {
					return err
				}
			}
			var err error
			recordDir, err = scratchDir("figures")
			resetFigureState(recordDir, "")
			out.Reset()
			return err
		},
		run:   func(sp *span) error { return runSuite(&out, only, sp, perFigure) },
		check: func() bool { return c.v.same("figures stdout", digest(out.Bytes())) },
	}
	warm := op{
		kind: "warm",
		prep: func() error {
			resetFigureState("", recordDir)
			out.Reset()
			return nil
		},
		run: func(sp *span) error { return runSuite(&out, only, sp, nil) },
		check: func() bool {
			// Replay that silently fell back to live simulation would
			// read as a slow warm op rather than a wrong one: check it.
			if simulated, _ := expt.MemoStats(); simulated != 0 {
				c.v.fail("warm figures op simulated %d runs, want 0 (all replayed)", simulated)
				return false
			}
			return c.v.same("figures stdout", digest(out.Bytes()))
		},
	}
	// No discarded pass: a 20 s cold op amortises first-touch faults to
	// under 2 %, and the set-up above has already touched the heap.
	if err := c.measure(1, cold, warm); err != nil {
		return err
	}
	c.res.Digests["figures stdout"] = c.v.want["figures stdout"]
	for id, s := range perFigure {
		c.res.extra("expt."+id+"_s", "s", s)
	}
	stored, err := dirMB(recordDir, "")
	if err != nil {
		return err
	}
	c.finishInProcess(stored)
	return nil
}
