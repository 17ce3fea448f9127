package expt

import (
	"fmt"
	"io"

	"graingraph/internal/highlight"
	"graingraph/internal/machine"
	"graingraph/internal/workloads"
)

// lowParallelismProblem and friends keep the highlight bitmask names out of
// signature noise in this package.
func lowParallelismProblem() highlight.Problem  { return highlight.LowParallelism }
func lowBenefitProblem() highlight.Problem      { return highlight.LowParallelBenefit }
func workInflationProblem() highlight.Problem   { return highlight.WorkInflation }
func poorUtilizationProblem() highlight.Problem { return highlight.PoorUtilization }
func highScatterProblem() highlight.Problem     { return highlight.HighScatter }

// Fig5Result is the data behind Figure 5: Sort's non-uniform parallelism
// (a) and the cutoff-lowering experiment that backfires (b).
type Fig5Result struct {
	// (a) well-tuned cutoffs: grains, fraction with instantaneous
	// parallelism below the 48 cores, and the parallelism timeline.
	TunedGrains   int
	TunedLowIP    float64
	TunedTimeline []int
	TunedMakespan uint64
	// (b) lowered cutoffs: many more grains, large low-parallel-benefit
	// fraction, and no performance win.
	LoweredGrains   int
	LoweredLowPB    float64
	LoweredMakespan uint64
	Tuned, Lowered  *Result
	RunLog
}

// Figure5 regenerates Figure 5: Sort's instantaneous-parallelism problem
// and the failed fix of lowering cutoffs.
func Figure5(w io.Writer) (*Fig5Result, error) {
	tunedP := workloads.DefaultSortParams()
	loweredP := tunedP
	loweredP.SeqCutoff = tunedP.SeqCutoff / 128
	loweredP.MergeCutoff = tunedP.MergeCutoff / 128
	results, err := runAll([]runReq{
		{mk: func() workloads.Instance { return workloads.NewSort(tunedP) },
			cfg: Config{Cores: 48, Seed: 1}, wrap: "figure 5 tuned"},
		{mk: func() workloads.Instance { return workloads.NewSort(loweredP) },
			cfg: Config{Cores: 48, Seed: 1}, wrap: "figure 5 lowered"},
	})
	if err != nil {
		return nil, err
	}
	tuned, lowered := results[0], results[1]
	res := &Fig5Result{
		TunedGrains:     tuned.Trace.NumGrains(),
		TunedLowIP:      tuned.Assessment.Affected(lowParallelismProblem()),
		TunedTimeline:   tuned.Report.Timeline,
		TunedMakespan:   tuned.Trace.Makespan(),
		LoweredGrains:   lowered.Trace.NumGrains(),
		LoweredLowPB:    lowered.Assessment.Affected(lowBenefitProblem()),
		LoweredMakespan: lowered.Trace.Makespan(),
		Tuned:           tuned,
		Lowered:         lowered,
		RunLog:          logOf(results),
	}
	if w != nil {
		tw := table(w)
		fmt.Fprintln(tw, "Figure 5: Sort — low instantaneous parallelism is incurable")
		fmt.Fprintln(tw, "variant\tgrains\tlow-IP grains\tlow-PB grains\tmakespan")
		fmt.Fprintf(tw, "(a) best cutoffs\t%d\t%s\t-\t%d\n",
			res.TunedGrains, pct(res.TunedLowIP), res.TunedMakespan)
		fmt.Fprintf(tw, "(b) lowered cutoffs\t%d\t-\t%s\t%d\n",
			res.LoweredGrains, pct(res.LoweredLowPB), res.LoweredMakespan)
		tw.Flush()
		fmt.Fprintln(w, "parallelism timeline (a), waxing/waning phases:")
		renderSparkline(w, res.TunedTimeline, 48)
	}
	return res, nil
}

// renderSparkline prints a compact bar series of parallelism over time.
func renderSparkline(w io.Writer, series []int, cores int) {
	if len(series) == 0 {
		return
	}
	// Downsample to at most 72 buckets.
	buckets := 72
	if len(series) < buckets {
		buckets = len(series)
	}
	marks := []byte(" .:-=+*#%@")
	out := make([]byte, buckets)
	for b := 0; b < buckets; b++ {
		lo := b * len(series) / buckets
		hi := (b + 1) * len(series) / buckets
		if hi == lo {
			hi = lo + 1
		}
		sum := 0
		for i := lo; i < hi; i++ {
			sum += series[i]
		}
		avg := float64(sum) / float64(hi-lo)
		idx := int(avg / float64(cores) * float64(len(marks)-1))
		if idx >= len(marks) {
			idx = len(marks) - 1
		}
		if idx < 0 {
			idx = 0
		}
		out[b] = marks[idx]
	}
	fmt.Fprintf(w, "|%s| (height = parallelism / %d cores)\n", out, cores)
}

// SortPageTableResult reproduces the §4.3.1 optimization table: affected
// grain percentages for work inflation and poor memory-hierarchy
// utilization, before (first-touch, serial init) and after (round-robin
// pages).
type SortPageTableResult struct {
	InflationBefore, InflationAfter     float64
	UtilizationBefore, UtilizationAfter float64
	Before, After                       *Result
	RunLog
}

// SortPageTable regenerates the Sort problem table.
func SortPageTable(w io.Writer) (*SortPageTableResult, error) {
	p := workloads.DefaultSortParams()
	results, err := runAll([]runReq{
		{mk: func() workloads.Instance { return workloads.NewSort(p) },
			cfg:  Config{Cores: 48, Seed: 1, Policy: machine.FirstTouch, Baseline: true},
			wrap: "sort table before"},
		{mk: func() workloads.Instance { return workloads.NewSort(p) },
			cfg:  Config{Cores: 48, Seed: 1, Policy: machine.RoundRobin, Baseline: true},
			wrap: "sort table after"},
	})
	if err != nil {
		return nil, err
	}
	before, after := results[0], results[1]
	res := &SortPageTableResult{
		InflationBefore:   before.Assessment.Affected(workInflationProblem()),
		InflationAfter:    after.Assessment.Affected(workInflationProblem()),
		UtilizationBefore: before.Assessment.Affected(poorUtilizationProblem()),
		UtilizationAfter:  after.Assessment.Affected(poorUtilizationProblem()),
		Before:            before,
		After:             after,
		RunLog:            logOf(results),
	}
	if w != nil {
		tw := table(w)
		fmt.Fprintln(tw, "Sort problem table (§4.3.1): affected grains before/after round-robin pages")
		fmt.Fprintln(tw, "problem\tbefore\tafter")
		fmt.Fprintf(tw, "Work Inflation\t%s\t%s\n", pct(res.InflationBefore), pct(res.InflationAfter))
		fmt.Fprintf(tw, "Poor Memory Hierarchy Utilization\t%s\t%s\n",
			pct(res.UtilizationBefore), pct(res.UtilizationAfter))
		tw.Flush()
	}
	return res, nil
}
