package expt

import (
	"bytes"
	"sync"
	"testing"

	"graingraph/internal/core"
	"graingraph/internal/export"
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
	serialRes := AnalyzeTraceOn(serialPool, tr, nil, Config{}, nil)
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
			res := AnalyzeTraceOn(shared, tr, nil, Config{}, nil)
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

// TestAnalyzeTraceOnLeavesGlobalPoolAlone pins the satellite fix: analyses
// on an explicit pool must not consult or mutate the package-global
// parallelism, so a CLI-configured global and server pools coexist.
func TestAnalyzeTraceOnLeavesGlobalPoolAlone(t *testing.T) {
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
	res := AnalyzeTraceOn(pool, run.Trace, nil, Config{}, nil)
	if res == nil || res.Assessment == nil {
		t.Fatal("explicit-pool analysis produced no result")
	}
	if got := parallelism(); got != before {
		t.Fatalf("AnalyzeTraceOn changed global parallelism %d -> %d", before, got)
	}
}
