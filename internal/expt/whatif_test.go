package expt

import (
	"bytes"
	"strings"
	"testing"
)

// TestWhatIfTableDeterministicAcrossParallelism extends the engine's -j
// guarantee to the what-if pass: ranked hypothesis tables are byte-identical
// whether the runs and hypothesis evaluations execute serially or pooled.
// The recorded suite ends with the what-if tables, which
// TestFiguresDeterministicAcrossParallelism compares at -j 1 and -j 8;
// under -short, this test renders them at both.
func TestWhatIfTableDeterministicAcrossParallelism(t *testing.T) {
	var tables []byte
	if testing.Short() {
		tables = sameAtJ1AndJ8(t, WhatIfFigure)
	} else {
		_, tables, _ = bytes.Cut(figureSuite(t).out, []byte("What-if: "))
	}
	if !strings.Contains(string(tables), "perfect cutoff") {
		t.Error("ranked table mentions no perfect-cutoff hypothesis")
	}
}

// TestWhatIfBrokenFibCutoffProjectsSpeedup pins the acceptance check from
// the paper's broken-cutoff story: on a fib run whose cutoff never trips,
// the perfect-cutoff hypothesis must project a strictly positive speedup.
func TestWhatIfBrokenFibCutoffProjectsSpeedup(t *testing.T) {
	setJobs(t, 4)

	res, err := WhatIfTable(nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range res.FibRanked {
		if strings.HasPrefix(p.Label, "perfect cutoff") {
			found = true
			if p.Speedup <= 1 {
				t.Errorf("%s projects speedup %.3f, want > 1", p.Label, p.Speedup)
			}
		}
	}
	if !found {
		t.Error("no perfect-cutoff hypothesis ranked for the broken-cutoff fib run")
	}
	if len(res.SortRanked) == 0 {
		t.Error("sort run produced no ranked hypotheses")
	}
}
