package expt

import (
	"bytes"
	"strings"
	"testing"
)

// TestWhatIfTableDeterministicAcrossParallelism extends the engine's -j
// guarantee to the what-if pass: ranked hypothesis tables are byte-identical
// whether the runs and hypothesis evaluations execute serially or pooled.
func TestWhatIfTableDeterministicAcrossParallelism(t *testing.T) {
	prev := parallelism()
	defer func() { SetParallelism(prev); ResetMemo() }()

	render := func(jobs int) []byte {
		ResetMemo()
		SetParallelism(jobs)
		var buf bytes.Buffer
		if _, err := WhatIfTable(&buf); err != nil {
			t.Fatalf("-j %d: %v", jobs, err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, parallel) {
		d := diffLine(serial, parallel)
		t.Fatalf("what-if tables differ (first differing line %d):\n-j 1:  %q\n-j 8:  %q",
			d, lineAt(serial, d), lineAt(parallel, d))
	}
	if !strings.Contains(string(serial), "perfect cutoff") {
		t.Error("ranked table mentions no perfect-cutoff hypothesis")
	}
}

// TestWhatIfBrokenFibCutoffProjectsSpeedup pins the acceptance check from
// the paper's broken-cutoff story: on a fib run whose cutoff never trips,
// the perfect-cutoff hypothesis must project a strictly positive speedup.
func TestWhatIfBrokenFibCutoffProjectsSpeedup(t *testing.T) {
	prev := parallelism()
	defer func() { SetParallelism(prev) }()
	SetParallelism(4)

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
