package expt

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"graingraph/internal/core"
	"graingraph/internal/export"
	"graingraph/internal/ggp"
	"graingraph/internal/lod"
	"graingraph/internal/runpool"
	"graingraph/internal/workloads"
)

// renderAll produces the full served surface for one analyzed result —
// summary, highlight table, what-if rank, windowed DOT export — the same
// pipeline grainserved drives per request.
func renderAll(res *Result, pool *runpool.Runner) ([]byte, error) {
	var buf bytes.Buffer
	if err := WriteSummary(&buf, res); err != nil {
		return nil, err
	}
	if err := WriteHighlight(&buf, res); err != nil {
		return nil, err
	}
	ps, err := WhatIfRank(res, pool, nil)
	if err != nil {
		return nil, err
	}
	if err := WriteWhatIfTable(&buf, res, ps); err != nil {
		return nil, err
	}
	ix := lod.Build(res.Graph, res.Assessment)
	wg, _, err := ix.Window(lod.WindowOptions{Depth: 2, Top: 4})
	if err != nil {
		return nil, err
	}
	core.Layout(wg)
	if err := export.DOTWithWhatIfPool(&buf, wg, res.Assessment, export.ViewStructure, nil, pool); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// TestConcurrentAnalysisDeterministic is the server-shaped concurrency
// guarantee (run under -race in CI): many goroutines analyzing the same
// trace on one shared pool — without ever touching the global
// SetParallelism state — must each produce output byte-identical to a
// serial single-worker analysis.
func TestConcurrentAnalysisDeterministic(t *testing.T) {
	inst, err := workloads.Get("fib", workloads.VariantDefault)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Run(inst, Config{Cores: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := run.Trace

	// Serial reference: one worker, no concurrency anywhere.
	serialPool := runpool.New(1)
	serialRes := analyze(serialPool, tr, nil, Config{}, nil)
	want, err := renderAll(serialRes, serialPool)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("serial reference rendered no bytes")
	}

	const goroutines = 6
	shared := runpool.New(8)
	var wg sync.WaitGroup
	outs := make([][]byte, goroutines)
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := analyze(shared, tr, nil, Config{}, nil)
			outs[i], errs[i] = renderAll(res, shared)
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !bytes.Equal(outs[i], want) {
			t.Errorf("goroutine %d output differs from the serial reference (len %d vs %d)",
				i, len(outs[i]), len(want))
		}
	}
}

// TestAnalyzeDecodedOnLeavesGlobalPoolAlone pins that analyses on an
// explicit pool do not consult or mutate the package-global parallelism,
// so a CLI-configured global and server pools coexist.
func TestAnalyzeDecodedOnLeavesGlobalPoolAlone(t *testing.T) {
	inst, err := workloads.Get("fib", workloads.VariantDefault)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Run(inst, Config{Cores: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := parallelism()
	pool := runpool.New(3)
	res := AnalyzeDecodedOn(pool, &ggp.Decoded{Trace: run.Trace}, nil, Config{}, nil)
	if res == nil || res.Assessment == nil {
		t.Fatal("explicit-pool analysis produced no result")
	}
	if got := parallelism(); got != before {
		t.Fatalf("AnalyzeDecodedOn changed global parallelism %d -> %d", before, got)
	}
}

// TestConcurrentFiguresKeepTheirOwnRuns pins that a figure's run log is
// its own value: two figures regenerated at the same time on one -j 4 pool
// each return exactly the runs they requested, in submission order — the
// same log each returns when it runs alone.
func TestConcurrentFiguresKeepTheirOwnRuns(t *testing.T) {
	defer ResetMemo()
	setJobs(t, 4)

	figs := []Figure{figureByID(t, "2"), figureByID(t, "6")}
	entries := func(runs []*LoggedRun) []string {
		out := make([]string, len(runs))
		for i, r := range runs {
			out[i] = fmt.Sprintf("%s makespan %d", r.Label, r.Trace.Makespan())
		}
		return out
	}
	want := make([][]string, len(figs))
	for i, f := range figs {
		ResetMemo()
		runs, err := f.Run(nil, 48)
		if err != nil {
			t.Fatalf("figure %s alone: %v", f.ID, err)
		}
		want[i] = entries(runs)
	}
	// Figure 2 requests two analyses; Figure 6 requests two analyses with
	// baselines, each baseline logged before its run.
	if len(want[0]) != 2 || len(want[1]) != 4 ||
		!strings.Contains(want[1][0], " p1 ") || !strings.Contains(want[1][1], " p48 ") {
		t.Fatalf("unexpected solo logs:\n%q\n%q", want[0], want[1])
	}

	ResetMemo()
	got := make([][]string, len(figs))
	errs := make([]error, len(figs))
	var wg sync.WaitGroup
	for i, f := range figs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs, err := f.Run(nil, 48)
			got[i], errs[i] = entries(runs), err
		}()
	}
	wg.Wait()
	for i, f := range figs {
		if errs[i] != nil {
			t.Fatalf("figure %s: %v", f.ID, errs[i])
		}
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("figure %s run log differs when run concurrently:\ngot:  %q\nwant: %q", f.ID, got[i], want[i])
		}
	}
}

// figureByID returns the Figures row with the given ID.
func figureByID(t *testing.T, id string) Figure {
	t.Helper()
	for _, f := range Figures {
		if f.ID == id {
			return f
		}
	}
	t.Fatalf("no figure %q", id)
	return Figure{}
}
