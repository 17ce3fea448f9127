package expt

import (
	"fmt"
	"io"

	"graingraph/internal/workloads"
)

// Fig2Result is the data behind Figure 2 (and the §2 kdtree analysis): the
// grain graph exposes the ineffective cutoff as a task explosion at
// unbounded recursion depth.
type Fig2Result struct {
	BuggyGrains int
	BuggyDepth  int
	FixedGrains int
	FixedDepth  int
	// BuggyResult/FixedResult carry the full analyses for export.
	Buggy, Fixed *Result
	RunLog
}

// Figure2 regenerates Figure 2: the 376.kdtree grain graph for the small
// input (tree size 200, radius, cutoff 2), before and after the missing
// depth increment is fixed.
func Figure2(w io.Writer) (*Fig2Result, error) {
	results, err := runAll([]runReq{
		{mk: func() workloads.Instance { return workloads.NewKdTree(workloads.DefaultKdTreeParams()) },
			cfg: Config{Cores: 48, Seed: 1}, wrap: "figure 2 buggy"},
		{mk: func() workloads.Instance { return workloads.NewKdTree(workloads.FixedKdTreeParams()) },
			cfg: Config{Cores: 48, Seed: 1}, wrap: "figure 2 fixed"},
	})
	if err != nil {
		return nil, err
	}
	buggy, fixed := results[0], results[1]
	maxDepth := func(r *Result) int {
		d := 0
		for _, t := range r.Trace.Tasks {
			d = max(d, int(t.Depth))
		}
		return d
	}
	res := &Fig2Result{
		BuggyGrains: buggy.Trace.NumGrains(),
		BuggyDepth:  maxDepth(buggy),
		FixedGrains: fixed.Trace.NumGrains(),
		FixedDepth:  maxDepth(fixed),
		Buggy:       buggy,
		Fixed:       fixed,
		RunLog:      logOf(results),
	}
	if w != nil {
		tw := table(w)
		fmt.Fprintln(tw, "Figure 2: 376.kdtree small input — cutoff 2 has no effect")
		fmt.Fprintln(tw, "variant\tgrains\tmax recursion depth")
		fmt.Fprintf(tw, "buggy (missing depth increment)\t%d\t%d\n", res.BuggyGrains, res.BuggyDepth)
		fmt.Fprintf(tw, "fixed (depth incremented)\t%d\t%d\n", res.FixedGrains, res.FixedDepth)
		tw.Flush()
	}
	return res, nil
}
