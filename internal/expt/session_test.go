package expt

import (
	"bytes"
	"path/filepath"
	"runtime"
	"testing"

	"graingraph/internal/core"
	"graingraph/internal/export"
	"graingraph/internal/ggp"
	"graingraph/internal/lod"
	"graingraph/internal/runpool"
	"graingraph/internal/workloads"
)

// coldSession is a viewing session on one artifact from a cold start:
// decode, analyse, then the six views a user asks for first — summary,
// highlight table, ranked what-if table, a level-of-detail window as DOT,
// a filter/sort/topk query and a group-by query. It returns the six
// renderings.
func coldSession(t testing.TB, path string, pool *runpool.Runner) [][]byte {
	t.Helper()
	dec, err := ggp.DecodeFile(path, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := AnalyzeDecodedOn(pool, dec, nil, Config{}, nil)
	wopt, err := lod.ParseWindow("depth=3,top=8")
	if err != nil {
		t.Fatal(err)
	}
	steps := []func(w *bytes.Buffer) error{
		func(w *bytes.Buffer) error { return WriteSummary(w, res) },
		func(w *bytes.Buffer) error { return WriteHighlight(w, res) },
		func(w *bytes.Buffer) error {
			ps, err := WhatIfRank(res, pool, nil)
			if err != nil {
				return err
			}
			return WriteWhatIfTable(w, res, ps)
		},
		func(w *bytes.Buffer) error {
			wg, _, err := res.Lod().Window(wopt)
			if err != nil {
				return err
			}
			core.Layout(wg)
			return export.DOTWithWhatIfPool(w, wg, res.Assessment, export.ViewStructure, nil, pool)
		},
		func(w *bytes.Buffer) error {
			return WriteQuery(w, res, "filter benefit < 1 | sort exec desc | topk 10 | select id,loc,exec", pool)
		},
		func(w *bytes.Buffer) error {
			return WriteQuery(w, res, "groupby depth | agg count, mean(exec), max(exec) | sort depth asc", pool)
		},
	}
	out := make([][]byte, len(steps))
	for i, step := range steps {
		var buf bytes.Buffer
		if err := step(&buf); err != nil {
			t.Fatalf("view %d: %v", i, err)
		}
		out[i] = buf.Bytes()
	}
	return out
}

// TestColdSessionBytesPerGrain bounds what a cold session allocates per
// grain of its artifact: decoding a v1 giant tree (FullDepth 6, 16 350
// grains), analysing it and rendering the six first views at two workers.
// The session allocates 1 809 B per grain, bounded at 1 980; with a copy of
// every execution span, four dense what-if buffers, full-length offender
// candidate lists, the lod index's ID column and per-depth lists, owner
// columns grown by append and a second task-ID table it took 2 035.
func TestColdSessionBytesPerGrain(t *testing.T) {
	const bound = 1980.0 // B per grain
	p := workloads.GiantUTSParams()
	p.FullDepth = 6
	res, err := Run(workloads.NewGiant(p), Config{Cores: 48, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "giant.v1.ggp")
	if err := ggp.WriteFile(path, res.Trace); err != nil {
		t.Fatal(err)
	}
	grains := res.Trace.NumGrains()
	res = nil
	pool := runpool.New(2)
	coldSession(t, path, pool) // warms the pool and the runtime's own caches

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	coldSession(t, path, pool)
	runtime.ReadMemStats(&after)
	perGrain := float64(after.TotalAlloc-before.TotalAlloc) / float64(grains)
	t.Logf("cold session: %d grains, %.0f B per grain (bound %.0f)", grains, perGrain, bound)
	if perGrain > bound {
		t.Errorf("cold session allocates %.0f B per grain, bound %.0f", perGrain, bound)
	}
}
