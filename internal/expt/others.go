package expt

import (
	"fmt"
	"io"

	"graingraph/internal/workloads"
)

// OtherRow summarizes one §4.3.6 program's metric profile.
type OtherRow struct {
	Program       string
	Grains        int
	Speedup       float64
	LowPB         float64
	PoorMHU       float64
	WorkInflation float64
	LowIP         float64
}

// OthersResult is the §4.3.6 summary ("Other benchmarks").
type OthersResult struct {
	Rows []OtherRow
	RunLog
}

// OtherBenchmarks regenerates the §4.3.6 summaries: Blackscholes (poor MHU
// and low PB on many chunks despite good speedup), NQueens (clean, linear),
// Fibonacci (work-deviation and parallel-benefit problems), and UTS (poor
// parallel benefit for most grains).
func OtherBenchmarks(w io.Writer) (*OthersResult, error) {
	cases := []struct {
		program  string
		baseline bool
		mk       func() workloads.Instance
	}{
		{"Blackscholes", false, func() workloads.Instance {
			return workloads.NewBlackscholes(workloads.DefaultBlackscholesParams())
		}},
		{"NQueens", false, func() workloads.Instance {
			return workloads.NewNQueens(workloads.DefaultNQueensParams())
		}},
		{"Fibonacci", true, func() workloads.Instance {
			return workloads.NewFib(workloads.DefaultFibParams())
		}},
		{"UTS", false, func() workloads.Instance {
			return workloads.NewUTS(workloads.DefaultUTSParams())
		}},
		{"358.botsalgn", false, func() workloads.Instance {
			return workloads.NewAlignment(workloads.DefaultAlignmentParams())
		}},
		{"Floorplan", false, func() workloads.Instance {
			return workloads.NewFloorplan(workloads.DefaultFloorplanParams())
		}},
	}
	res := &OthersResult{}

	// All six analyses in one batch, then the twelve speedup makespans in a
	// second (each program's 48-core makespan memo-hits its analysis run
	// above — the default-config programs share a content address).
	var runReqs, mkReqs []runReq
	for _, cs := range cases {
		runReqs = append(runReqs, runReq{
			mk:   cs.mk,
			cfg:  Config{Cores: 48, Seed: 1, Baseline: cs.baseline},
			wrap: fmt.Sprintf("others %s", cs.program),
		})
		wrap := fmt.Sprintf("others %s speedup", cs.program)
		mkReqs = append(mkReqs,
			runReq{mk: cs.mk, cfg: Config{Cores: 1, Seed: 1}, wrap: wrap, makespan: true},
			runReq{mk: cs.mk, cfg: Config{Cores: 48, Seed: 1}, wrap: wrap, makespan: true},
		)
	}
	results, err := runAll(runReqs)
	if err != nil {
		return nil, err
	}
	mks, err := runAll(mkReqs)
	if err != nil {
		return nil, err
	}
	res.RunLog = logOf(results, mks)
	for i, cs := range cases {
		r := results[i]
		res.Rows = append(res.Rows, OtherRow{
			Program:       cs.program,
			Grains:        r.Trace.NumGrains(),
			Speedup:       speedup(mks[2*i], mks[2*i+1]),
			LowPB:         r.Assessment.Affected(lowBenefitProblem()),
			PoorMHU:       r.Assessment.Affected(poorUtilizationProblem()),
			WorkInflation: r.Assessment.Affected(workInflationProblem()),
			LowIP:         r.Assessment.Affected(lowParallelismProblem()),
		})
	}
	if w != nil {
		tw := table(w)
		fmt.Fprintln(tw, "§4.3.6 Other benchmarks (48 cores)")
		fmt.Fprintln(tw, "program\tgrains\tspeedup\tlow PB\tpoor MHU\twork inflation\tlow IP")
		for _, row := range res.Rows {
			fmt.Fprintf(tw, "%s\t%d\t%.1f\t%s\t%s\t%s\t%s\n", row.Program, row.Grains,
				row.Speedup, pct(row.LowPB), pct(row.PoorMHU),
				pct(row.WorkInflation), pct(row.LowIP))
		}
		tw.Flush()
	}
	return res, nil
}
