package expt

import (
	"fmt"
	"io"
	"sort"

	"graingraph/internal/workloads"
)

// Fig6Result is the data behind Figure 6: 359.botsspar's two interleaved
// phases, widespread work inflation at the refined 1.2 threshold, the
// bmod culprit, and the loop-interchange fix.
type Fig6Result struct {
	Grains int
	// Phase structure: tasks per definition (fwd/bdiv vs bmod).
	TasksPerDef map[string]int
	// InflationBefore/After: affected fraction at work-deviation > 1.2.
	InflationBefore, InflationAfter float64
	// CulpritDef is the definition ranked first by creation count among
	// inflated grains (the paper pinpoints sparselu bmod).
	CulpritDef    string
	Before, After *Result
	RunLog
}

// Figure6 regenerates Figure 6.
func Figure6(w io.Writer) (*Fig6Result, error) {
	results, err := runAll([]runReq{
		{mk: func() workloads.Instance { return workloads.NewSparseLU(workloads.DefaultSparseLUParams()) },
			cfg:  Config{Cores: 48, Seed: 1, Baseline: true, WorkDeviationMax: 1.2},
			wrap: "figure 6 before"},
		{mk: func() workloads.Instance { return workloads.NewSparseLU(workloads.OptimizedSparseLUParams()) },
			cfg:  Config{Cores: 48, Seed: 1, Baseline: true, WorkDeviationMax: 1.2},
			wrap: "figure 6 after"},
	})
	if err != nil {
		return nil, err
	}
	before, after := results[0], results[1]

	res := &Fig6Result{
		Grains:          before.Trace.NumGrains(),
		TasksPerDef:     map[string]int{},
		InflationBefore: before.Assessment.Affected(workInflationProblem()),
		InflationAfter:  after.Assessment.Affected(workInflationProblem()),
		Before:          before,
		After:           after,
		RunLog:          logOf(results),
	}
	for _, t := range before.Trace.Tasks {
		res.TasksPerDef[t.Loc.String()]++
	}
	// Culprit: sort definitions by creation count among inflated grains.
	type defCount struct {
		def string
		n   int
	}
	counts := map[string]int{}
	rep := before.Report
	for row, m := range before.Assessment.Mask {
		if m&workInflationProblem() != 0 {
			counts[rep.Trace.GrainLoc(rep.Num[row]).String()]++
		}
	}
	var dcs []defCount
	for d, n := range counts {
		dcs = append(dcs, defCount{d, n})
	}
	sort.Slice(dcs, func(i, j int) bool {
		if dcs[i].n != dcs[j].n {
			return dcs[i].n > dcs[j].n
		}
		return dcs[i].def < dcs[j].def
	})
	if len(dcs) > 0 {
		res.CulpritDef = dcs[0].def
	}

	if w != nil {
		tw := table(w)
		fmt.Fprintln(tw, "Figure 6: 359.botsspar — work inflation (threshold 1.2)")
		fmt.Fprintf(tw, "grains\t%d\n", res.Grains)
		fmt.Fprintf(tw, "inflated before\t%s\n", pct(res.InflationBefore))
		fmt.Fprintf(tw, "inflated after loop interchange\t%s\n", pct(res.InflationAfter))
		fmt.Fprintf(tw, "culprit definition (by creation count among inflated)\t%s\n", res.CulpritDef)
		fmt.Fprintln(tw, "tasks per definition:")
		var defs []string
		for d := range res.TasksPerDef {
			defs = append(defs, d)
		}
		sort.Strings(defs)
		for _, d := range defs {
			fmt.Fprintf(tw, "  %s\t%d\n", d, res.TasksPerDef[d])
		}
		tw.Flush()
	}
	return res, nil
}
