package expt

import (
	"fmt"
	"io"

	"graingraph/internal/machine"
	"graingraph/internal/rts"
	"graingraph/internal/workloads"
)

// Fig1Row is one bar of Figure 1: a program × variant × runtime-flavour
// speedup over single-core execution.
type Fig1Row struct {
	Program string
	Variant string // "before" or "after" the grain-graph-guided optimization
	Flavor  rts.Flavor
	Cores   int
	Speedup float64
}

// Fig1Result is the data behind Figure 1.
type Fig1Result struct {
	Rows []Fig1Row
	RunLog
}

// Get returns the speedup for (program, variant, flavour).
func (r *Fig1Result) Get(program, variant string, fl rts.Flavor) float64 {
	for _, row := range r.Rows {
		if row.Program == program && row.Variant == variant && row.Flavor == fl {
			return row.Speedup
		}
	}
	return 0
}

// fig1Case describes one program's before/after instances. Policy applies
// to the run configuration (Sort's optimization is a placement policy).
type fig1Case struct {
	program string
	variant string
	policy  machine.Policy
	mk      func() workloads.Instance
}

// fig1Cases returns the evaluation matrix at the given scale (1 = default).
func fig1Cases() []fig1Case {
	return []fig1Case{
		{"376.kdtree", "before", machine.FirstTouch, func() workloads.Instance {
			return workloads.NewKdTree(workloads.PerfKdTreeParams(false))
		}},
		{"376.kdtree", "after", machine.FirstTouch, func() workloads.Instance {
			return workloads.NewKdTree(workloads.PerfKdTreeParams(true))
		}},
		{"Sort", "before", machine.FirstTouch, func() workloads.Instance {
			return workloads.NewSort(workloads.DefaultSortParams())
		}},
		{"Sort", "after", machine.RoundRobin, func() workloads.Instance {
			return workloads.NewSort(workloads.DefaultSortParams())
		}},
		{"359.botsspar", "before", machine.FirstTouch, func() workloads.Instance {
			return workloads.NewSparseLU(workloads.DefaultSparseLUParams())
		}},
		{"359.botsspar", "after", machine.RoundRobin, func() workloads.Instance {
			return workloads.NewSparseLU(workloads.OptimizedSparseLUParams())
		}},
		{"FFT", "before", machine.FirstTouch, func() workloads.Instance {
			return workloads.NewFFT(workloads.DefaultFFTParams())
		}},
		{"FFT", "after", machine.FirstTouch, func() workloads.Instance {
			return workloads.NewFFT(workloads.OptimizedFFTParams())
		}},
		{"Strassen", "before", machine.FirstTouch, func() workloads.Instance {
			return workloads.NewStrassen(workloads.DefaultStrassenParams())
		}},
		{"Strassen", "after", machine.FirstTouch, func() workloads.Instance {
			return workloads.NewStrassen(workloads.FixedStrassenParams())
		}},
	}
}

// Figure1 regenerates Figure 1: speedup on `cores` cores before and after
// each grain-graph-guided optimization, for the three runtime flavours.
//
// Speedups are measured against a per-program common serial baseline (the
// optimized variant on one core), matching the paper's convention of
// normalizing by single-core execution (§4.3.6); this is what makes a
// task-explosion variant's pure-overhead "self speedup" visible as the
// performance loss it really is.
func Figure1(w io.Writer, cores int) (*Fig1Result, error) {
	if cores == 0 {
		cores = 48
	}
	res := &Fig1Result{}
	flavors := []rts.Flavor{rts.FlavorMIR, rts.FlavorGCC, rts.FlavorICC}

	// One batch covers the whole figure: the five common serial baselines
	// (the "after" variant on one core) followed by the 30 case × flavour
	// parallel runs. Requests are independent, so the pool may interleave
	// them freely; results come back in this order regardless.
	var reqs []runReq
	var basePrograms []string
	for _, cs := range fig1Cases() {
		if cs.variant != "after" {
			continue
		}
		basePrograms = append(basePrograms, cs.program)
		reqs = append(reqs, runReq{
			mk:       cs.mk,
			cfg:      Config{Cores: 1, Policy: cs.policy, Seed: 1},
			wrap:     fmt.Sprintf("figure 1 baseline %s", cs.program),
			makespan: true,
		})
	}
	type runIdx struct {
		cs fig1Case
		fl rts.Flavor
	}
	var runs []runIdx
	for _, cs := range fig1Cases() {
		for _, fl := range flavors {
			runs = append(runs, runIdx{cs, fl})
			reqs = append(reqs, runReq{
				mk:       cs.mk,
				cfg:      Config{Cores: cores, Flavor: fl, Policy: cs.policy, Seed: 1},
				wrap:     fmt.Sprintf("figure 1 %s/%s/%v", cs.program, cs.variant, fl),
				makespan: true,
			})
		}
	}
	results, err := runAll(reqs)
	if err != nil {
		return nil, err
	}
	res.RunLog = logOf(results)
	baseT1 := map[string]uint64{}
	for i, program := range basePrograms {
		baseT1[program] = results[i].Trace.Makespan()
	}
	for i, r := range runs {
		tp := results[len(basePrograms)+i].Trace.Makespan()
		res.Rows = append(res.Rows, Fig1Row{
			Program: r.cs.program, Variant: r.cs.variant, Flavor: r.fl,
			Cores: cores, Speedup: float64(baseT1[r.cs.program]) / float64(tp),
		})
	}
	if w != nil {
		tw := table(w)
		fmt.Fprintf(tw, "Figure 1: speedup on %d cores, before/after optimization\n", cores)
		fmt.Fprintln(tw, "program\tvariant\tMIR\tGCC\tICC")
		for _, cs := range []string{"376.kdtree", "Sort", "359.botsspar", "FFT", "Strassen"} {
			for _, variant := range []string{"before", "after"} {
				fmt.Fprintf(tw, "%s\t%s\t%.1f\t%.1f\t%.1f\n", cs, variant,
					res.Get(cs, variant, rts.FlavorMIR),
					res.Get(cs, variant, rts.FlavorGCC),
					res.Get(cs, variant, rts.FlavorICC))
			}
		}
		tw.Flush()
	}
	return res, nil
}
