package expt

import (
	"fmt"
	"io"

	"graingraph/internal/timeline"
	"graingraph/internal/workloads"
)

// Fig4Result contrasts the baseline thread-timeline view with the grain
// graph: the timeline shows only load imbalance; the grain graph names the
// culprits.
type Fig4Result struct {
	View          *timeline.View
	LoadImbalance float64
	// LowIPAffected is the fraction of grains the grain graph flags for low
	// instantaneous parallelism — the root cause the timeline cannot show.
	LowIPAffected float64
	RunLog
}

// Figure4 regenerates Figure 4: Sort under the VTune-style per-thread
// aggregate view. The takeaway is negative knowledge — "cores perform
// uneven work... nothing links the load imbalance to the culprit tasks".
func Figure4(w io.Writer) (*Fig4Result, error) {
	res, err := Run(workloads.NewSort(workloads.DefaultSortParams()), Config{Cores: 48, Seed: 1})
	if err != nil {
		return nil, fmt.Errorf("figure 4: %w", err)
	}
	v := timeline.FromTrace(res.Trace)
	out := &Fig4Result{View: v, LoadImbalance: v.LoadImbalance(), RunLog: res.RunLog}
	out.LowIPAffected = res.Assessment.Affected(lowParallelismProblem())
	if w != nil {
		fmt.Fprintln(w, "Figure 4: what existing tools show for Sort (thread timeline)")
		if err := v.Render(w); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "\nWhat the timeline cannot show: the grain graph flags %s of grains\n", pct(out.LowIPAffected))
		fmt.Fprintln(w, "for low instantaneous parallelism, pinpointing the culprit grains.")
	}
	return out, nil
}
