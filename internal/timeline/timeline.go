// Package timeline reproduces the baseline visualization existing tools
// offer (paper Figure 4, Intel VTune and friends): per-thread aggregate
// time split into busy / runtime-overhead / idle. It shows load imbalance
// but — by construction — nothing that links the imbalance to culprit
// grains, which is exactly the gap grain graphs fill. Stats adds the
// runtime's scheduler counts and cache hit rates, derived from the same
// profile.
package timeline

import (
	"fmt"
	"io"
	"strings"

	"graingraph/internal/profile"
)

// ThreadRow is one worker's aggregate time split.
type ThreadRow struct {
	Worker   int
	Busy     profile.Time // executing grain code
	Overhead profile.Time // runtime bookkeeping (spawn/steal/queue ops)
	Idle     profile.Time // neither
}

// BusyFraction returns busy time over the makespan.
func (r *ThreadRow) BusyFraction(makespan profile.Time) float64 {
	if makespan == 0 {
		return 0
	}
	return float64(r.Busy) / float64(makespan)
}

// View is the per-thread aggregate timeline.
type View struct {
	Program  string
	Makespan profile.Time
	Rows     []ThreadRow
}

// FromTrace builds the timeline view from a profiled trace. It panics if
// any worker's busy+overhead exceeds the makespan: idle is derived as the
// remainder, so an overshoot means busy+overhead+idle ≠ makespan·workers —
// a runtime accounting bug that must not be papered over. No artifact
// reaches the panic: Trace.Validate makes the same check (its worker
// busy+overhead bound, by subtraction so a wrapping sum is caught too), and
// ggp's hostile-reference tests feed both such artifacts (splitTraces: one
// cycle over, and an overhead that wraps the sum) and get a decode error.
func FromTrace(tr *profile.Trace) *View {
	v := &View{Program: tr.Program, Makespan: tr.Makespan()}
	for i, ws := range tr.Workers {
		row := ThreadRow{Worker: i, Busy: ws.Busy, Overhead: ws.Overhead}
		if ws.Busy > v.Makespan || ws.Overhead > v.Makespan-ws.Busy {
			panic(fmt.Sprintf(
				"timeline: worker %d busy %d + overhead %d exceeds makespan %d — runtime time accounting is broken",
				i, ws.Busy, ws.Overhead, v.Makespan))
		}
		row.Idle = v.Makespan - ws.Busy - ws.Overhead
		v.Rows = append(v.Rows, row)
	}
	return v
}

// LoadImbalance is the classic thread-level statistic the paper says is
// all existing tools surface: max busy time over mean busy time.
func (v *View) LoadImbalance() float64 {
	if len(v.Rows) == 0 {
		return 0
	}
	var max, sum profile.Time
	for i := range v.Rows {
		b := v.Rows[i].Busy
		sum += b
		if b > max {
			max = b
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(v.Rows))
	return float64(max) / mean
}

// Render writes an ASCII per-thread bar chart: '#' busy, '+' overhead,
// '.' idle — the flavour of insight a VTune screenshot gives.
func (v *View) Render(w io.Writer) error {
	const width = 60
	if _, err := fmt.Fprintf(w, "%s — thread timeline (makespan %d cycles)\n", v.Program, v.Makespan); err != nil {
		return err
	}
	for i := range v.Rows {
		r := &v.Rows[i]
		busy, over := 0, 0
		if v.Makespan > 0 {
			busy = int(float64(r.Busy) / float64(v.Makespan) * width)
			over = int(float64(r.Overhead) / float64(v.Makespan) * width)
		}
		if busy+over > width {
			over = width - busy
		}
		idle := width - busy - over
		bar := strings.Repeat("#", busy) + strings.Repeat("+", over) + strings.Repeat(".", idle)
		if _, err := fmt.Fprintf(w, "T%02d |%s| busy %5.1f%%\n", r.Worker, bar,
			100*r.BusyFraction(v.Makespan)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "load imbalance (max/mean busy): %.2f\n", v.LoadImbalance())
	return err
}
