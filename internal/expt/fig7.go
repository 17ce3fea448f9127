package expt

import (
	"fmt"
	"io"

	"graingraph/internal/highlight"
	"graingraph/internal/workloads"
)

// Fig7Result is the data behind Figure 7: FFT parallel benefit grouped by
// source definition, before and after adding cutoffs. "Not all grains are
// created in the optimized program due to cutoffs."
type Fig7Result struct {
	BeforeGrains, AfterGrains int
	BeforeLowPB, AfterLowPB   float64
	// PerDefBefore ranks definitions by total work and reports low-PB
	// prevalence (the paper's per-source-file bars).
	PerDefBefore, PerDefAfter []highlight.DefinitionStats
	Before, After             *Result
	RunLog
}

// Figure7 regenerates Figure 7.
func Figure7(w io.Writer) (*Fig7Result, error) {
	results, err := runAll([]runReq{
		{mk: func() workloads.Instance { return workloads.NewFFT(workloads.DefaultFFTParams()) },
			cfg: Config{Cores: 48, Seed: 1}, wrap: "figure 7 before"},
		{mk: func() workloads.Instance { return workloads.NewFFT(workloads.OptimizedFFTParams()) },
			cfg: Config{Cores: 48, Seed: 1}, wrap: "figure 7 after"},
	})
	if err != nil {
		return nil, err
	}
	before, after := results[0], results[1]
	res := &Fig7Result{
		BeforeGrains: before.Trace.NumGrains(),
		AfterGrains:  after.Trace.NumGrains(),
		BeforeLowPB:  before.Assessment.Affected(lowBenefitProblem()),
		AfterLowPB:   after.Assessment.Affected(lowBenefitProblem()),
		PerDefBefore: before.Assessment.ByDefinition(lowBenefitProblem()),
		PerDefAfter:  after.Assessment.ByDefinition(lowBenefitProblem()),
		Before:       before,
		After:        after,
		RunLog:       logOf(results),
	}
	if w != nil {
		tw := table(w)
		fmt.Fprintln(tw, "Figure 7: FFT parallel benefit grouped by definition")
		fmt.Fprintln(tw, "variant\tgrains\tlow parallel benefit")
		fmt.Fprintf(tw, "original\t%d\t%s\n", res.BeforeGrains, pct(res.BeforeLowPB))
		fmt.Fprintf(tw, "with cutoffs\t%d\t%s\n", res.AfterGrains, pct(res.AfterLowPB))
		fmt.Fprintln(tw, "\noriginal, by definition (heaviest first):")
		fmt.Fprintln(tw, "definition\tgrains\ttotal exec\tlow-PB prevalence")
		for _, d := range res.PerDefBefore {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%s\n", d.Loc, d.Grains, d.TotalExec, pct(d.Prevalence))
		}
		tw.Flush()
	}
	return res, nil
}

// Fig8Result is the data behind Figure 8: after the cutoff fix, poor
// memory-hierarchy utilization remains widespread — the next bottleneck.
type Fig8Result struct {
	Grains  int
	PoorMHU float64
	Run     *Result
	RunLog
}

// Figure8 regenerates Figure 8 on the optimized FFT at a memory-resident
// input size.
func Figure8(w io.Writer) (*Fig8Result, error) {
	r, err := Run(workloads.NewFFT(workloads.LargeFFTParams()), Config{Cores: 48, Seed: 1})
	if err != nil {
		return nil, fmt.Errorf("figure 8: %w", err)
	}
	res := &Fig8Result{
		Grains:  r.Trace.NumGrains(),
		PoorMHU: r.Assessment.Affected(poorUtilizationProblem()),
		Run:     r,
		RunLog:  r.RunLog,
	}
	if w != nil {
		fmt.Fprintf(w, "Figure 8: optimized FFT — %d grains, %s with poor memory hierarchy utilization\n",
			res.Grains, pct(res.PoorMHU))
		fmt.Fprintln(w, "(algorithmic changes / locality-aware scheduling needed next; critical-path-only optimization will not suffice)")
	}
	return res, nil
}
