package expt

import (
	"fmt"
	"io"

	"graingraph/internal/rts"
	"graingraph/internal/workloads"
)

// Fig11Result is the data behind Figure 11: Strassen's hard-coded cutoff
// flattens the graph regardless of SC (a); removing it exposes parallelism
// but surfaces poor memory-hierarchy utilization (b); and scheduler choice
// governs sibling scatter (c vs d).
type Fig11Result struct {
	// (a) buggy grain counts are identical across SC values.
	BuggyGrainsSCHigh, BuggyGrainsSCLow int
	// (b) fixed variant: grains and poor-MHU fraction.
	FixedGrains  int
	FixedPoorMHU float64
	// (c/d) scatter under work-stealing vs central queue + speedups.
	ScatterWS, ScatterCQ   float64 // affected fraction (beyond one socket)
	SpeedupWS, SpeedupCQ   float64
	Buggy, Fixed, CQResult *Result
	RunLog
}

// Figure11 regenerates Figure 11.
func Figure11(w io.Writer) (*Fig11Result, error) {
	res := &Fig11Result{}

	pHigh := workloads.DefaultStrassenParams()
	pHigh.SC = pHigh.N / 4
	pLow := workloads.DefaultStrassenParams()
	pLow.SC = 8
	mkFixed := func() workloads.Instance {
		return workloads.NewStrassen(workloads.FixedStrassenParams())
	}
	wsCfg := Config{Cores: 48, Seed: 1}
	cqCfg := Config{Cores: 48, Seed: 1, Scheduler: rts.CentralQueueSched}

	// (a) buggy at two SC values, (b) fixed, (d) fixed on the central
	// queue — four independent analyses, one batch.
	results, err := runAll([]runReq{
		{mk: func() workloads.Instance { return workloads.NewStrassen(pHigh) },
			cfg: wsCfg, wrap: "figure 11a high SC"},
		{mk: func() workloads.Instance { return workloads.NewStrassen(pLow) },
			cfg: wsCfg, wrap: "figure 11a low SC"},
		{mk: mkFixed, cfg: wsCfg, wrap: "figure 11b"},
		{mk: mkFixed, cfg: cqCfg, wrap: "figure 11d"},
	})
	if err != nil {
		return nil, err
	}
	buggyHigh, buggyLow, fixed, cq := results[0], results[1], results[2], results[3]

	res.BuggyGrainsSCHigh = buggyHigh.Trace.NumGrains()
	res.BuggyGrainsSCLow = buggyLow.Trace.NumGrains()
	res.Buggy = buggyLow
	res.FixedGrains = fixed.Trace.NumGrains()
	res.FixedPoorMHU = fixed.Assessment.Affected(poorUtilizationProblem())
	res.Fixed = fixed
	res.ScatterWS = fixed.Assessment.Affected(highScatterProblem())
	res.ScatterCQ = cq.Assessment.Affected(highScatterProblem())
	res.CQResult = cq

	// (c/d) speedups: the two 48-core makespans are memo hits from the runs
	// above; only the 1-core references execute.
	oneWS, oneCQ := wsCfg, cqCfg
	oneWS.Cores, oneCQ.Cores = 1, 1
	mks, err := runAll([]runReq{
		{mk: mkFixed, cfg: oneWS, wrap: "figure 11c", makespan: true},
		{mk: mkFixed, cfg: wsCfg, wrap: "figure 11c", makespan: true},
		{mk: mkFixed, cfg: oneCQ, wrap: "figure 11d speedup", makespan: true},
		{mk: mkFixed, cfg: cqCfg, wrap: "figure 11d speedup", makespan: true},
	})
	if err != nil {
		return nil, err
	}
	res.SpeedupWS = speedup(mks[0], mks[1])
	res.SpeedupCQ = speedup(mks[2], mks[3])
	res.RunLog = logOf(results, mks)

	if w != nil {
		tw := table(w)
		fmt.Fprintln(tw, "Figure 11: Strassen")
		fmt.Fprintf(tw, "(a) buggy grains, SC=%d\t%d\n", pHigh.SC, res.BuggyGrainsSCHigh)
		fmt.Fprintf(tw, "(a) buggy grains, SC=%d\t%d\t(cutoff has no effect)\n", pLow.SC, res.BuggyGrainsSCLow)
		fmt.Fprintf(tw, "(b) fixed grains\t%d\n", res.FixedGrains)
		fmt.Fprintf(tw, "(b) fixed poor-MHU grains\t%s\n", pct(res.FixedPoorMHU))
		fmt.Fprintf(tw, "(c) scattered grains, work-stealing\t%s\t(speedup %.1f)\n", pct(res.ScatterWS), res.SpeedupWS)
		fmt.Fprintf(tw, "(d) scattered grains, central queue\t%s\t(speedup %.1f)\n", pct(res.ScatterCQ), res.SpeedupCQ)
		tw.Flush()
	}
	return res, nil
}
