package expt

import (
	"fmt"
	"io"

	"graingraph/internal/whatif"
	"graingraph/internal/workloads"
)

// WhatIfResult carries the what-if analysis of the two standard subjects:
// the Figure 5 tuned Sort run and a deliberately broken-cutoff Fib run
// (cutoff deeper than the recursion, so every call spawns a task).
type WhatIfResult struct {
	Sort, Fib             *Result
	SortRanked, FibRanked []whatif.Projection
	RunLog
}

// brokenFibParams spawns all the way to the leaves: with Cutoff >= N the
// depth test never trips, reproducing the paper's broken-cutoff anti-pattern
// where per-task overhead rivals the work.
func brokenFibParams() workloads.FibParams { return workloads.FibParams{N: 18, Cutoff: 18} }

// WhatIfFigure is the what-if tables as a figure-suite step (grainbench
// -fig whatif): an opt-in step outside Figures.
var WhatIfFigure = Figure{"whatif", func(w io.Writer, _ int) ([]*LoggedRun, error) { return runsOf(WhatIfTable(w)) }}

// WhatIfTable regenerates the what-if opportunity tables: for each subject
// run, the engine replays recorded grain weights under hypothetical
// transformations (perfect cutoffs, grain scaling, de-inflation, infinite
// cores) and ranks them by projected makespan — no re-simulation. The
// hypothesis evaluations fan out across the same -j pool as the simulations
// themselves, and output is byte-identical at every parallelism level.
func WhatIfTable(w io.Writer) (*WhatIfResult, error) {
	results, err := runAll([]runReq{
		{mk: func() workloads.Instance { return workloads.NewSort(workloads.DefaultSortParams()) },
			cfg: Config{Cores: 48, Seed: 1, Baseline: true}, wrap: "what-if sort"},
		{mk: func() workloads.Instance { return workloads.NewFib(brokenFibParams()) },
			cfg: Config{Cores: 48, Seed: 1}, wrap: "what-if fib"},
	})
	if err != nil {
		return nil, err
	}
	res := &WhatIfResult{Sort: results[0], Fib: results[1], RunLog: logOf(results)}
	opt := whatif.RankOptions{TopN: 8}
	pool := currentPool()

	sp := SelfProfiler().Begin("whatif:rank:sort")
	sortEng := whatif.New(res.Sort.Graph, res.Sort.Report)
	sortEng.Obs = sp
	res.SortRanked, err = sortEng.Rank(res.Sort.Assessment, pool, opt)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = SelfProfiler().Begin("whatif:rank:fib")
	fibEng := whatif.New(res.Fib.Graph, res.Fib.Report)
	fibEng.Obs = sp
	res.FibRanked, err = fibEng.Rank(res.Fib.Assessment, pool, opt)
	sp.End()
	if err != nil {
		return nil, err
	}

	if w != nil {
		title := fmt.Sprintf("What-if: sort, tuned cutoffs (%d grains, %d cores)",
			res.Sort.Trace.NumGrains(), res.Sort.Trace.Cores)
		if err := whatif.WriteTable(w, title, res.SortRanked); err != nil {
			return nil, err
		}
		fmt.Fprintln(w)
		title = fmt.Sprintf("What-if: fib, broken cutoff (%d grains, %d cores)",
			res.Fib.Trace.NumGrains(), res.Fib.Trace.Cores)
		if err := whatif.WriteTable(w, title, res.FibRanked); err != nil {
			return nil, err
		}
	}
	return res, nil
}
