package expt

import (
	"fmt"
	"io"

	"graingraph/internal/binpack"
	"graingraph/internal/profile"
	"graingraph/internal/rts"
	"graingraph/internal/workloads"
)

// Fig9Result covers Figures 9/10 and Table 1: Freqmine's FPGF loop has
// grains of wildly uneven size; load balance is terrible on 48 cores, and
// a bin-packer shows a handful of cores preserve the makespan.
type Fig9Result struct {
	Grains int
	// Chunks and load balance of the dominant (second) FPGF instance.
	Chunks         int
	LoadBalance48  float64
	LowPB          float64
	MinCores       int
	LoadBalanceMin float64 // load balance re-run with MinCores threads
	// Table 1 rows: per-flavour 48-core speedup and exec times.
	Table1        []Table1Row
	Full, Reduced *Result
	RunLog
}

// Table1Row is one row of Table 1.
type Table1Row struct {
	Flavor       rts.Flavor
	Speedup      float64
	Exec48Cycles uint64
	ExecMinCores uint64
}

// dominantLoop returns the loop with the largest total chunk time.
func dominantLoop(r *Result) (loopID profile.LoopID, chunks int, durations []uint64) {
	totals := map[profile.LoopID]uint64{}
	counts := map[profile.LoopID]int{}
	for _, ck := range r.Trace.Chunks {
		totals[ck.Loop] += ck.Duration()
		counts[ck.Loop]++
	}
	// Map iteration order is random: break total-time ties by the lower
	// loop ID so the choice (and everything printed from it) is stable.
	best := profile.LoopID(-1)
	for id, tot := range totals {
		if best == -1 || tot > totals[best] || (tot == totals[best] && id < best) {
			best = id
		}
	}
	for _, ck := range r.Trace.Chunks {
		if ck.Loop == best {
			durations = append(durations, ck.Duration())
		}
	}
	return best, counts[best], durations
}

// Figure9Table1 regenerates Figures 9/10 and Table 1.
func Figure9Table1(w io.Writer) (*Fig9Result, error) {
	mk := func(threads int) workloads.Instance {
		p := workloads.DefaultFreqmineParams()
		p.NumThreads = threads
		return workloads.NewFreqmine(p)
	}
	full, err := Run(mk(0), Config{Cores: 48, Seed: 1})
	if err != nil {
		return nil, fmt.Errorf("figure 9 full: %w", err)
	}
	loopID, chunkCount, durations := dominantLoop(full)
	lb := full.Report.LoopLoadBalance[loopID]

	// Bin-pack: minimum cores preserving the dominant loop's makespan.
	loop := full.Trace.Loop(loopID)
	minCores := binpack.MinCores(durations, uint64(loop.End-loop.Start))

	reduced, err := Run(mk(minCores), Config{Cores: 48, Seed: 1})
	if err != nil {
		return nil, fmt.Errorf("figure 10 reduced: %w", err)
	}
	redLoopID, _, _ := dominantLoop(reduced)
	lbMin := reduced.Report.LoopLoadBalance[redLoopID]

	res := &Fig9Result{
		Grains:         full.Trace.NumGrains(),
		Chunks:         chunkCount,
		LoadBalance48:  lb,
		LowPB:          full.Assessment.Affected(lowBenefitProblem()),
		MinCores:       minCores,
		LoadBalanceMin: lbMin,
		Full:           full,
		Reduced:        reduced,
	}

	// Table 1: per-flavour speedups and 48-core vs min-core times, as one
	// batch of 3 flavours × (1-core, 48-core, min-core) makespans. The
	// 48-core run doubles as the speedup denominator.
	flavors := []rts.Flavor{rts.FlavorICC, rts.FlavorGCC, rts.FlavorMIR}
	var reqs []runReq
	for _, fl := range flavors {
		cfg := Config{Cores: 48, Flavor: fl, Seed: 1}
		one := cfg
		one.Cores = 1
		wrap := fmt.Sprintf("table 1 %v", fl)
		reqs = append(reqs,
			runReq{mk: func() workloads.Instance { return mk(0) }, cfg: one, wrap: wrap, makespan: true},
			runReq{mk: func() workloads.Instance { return mk(0) }, cfg: cfg, wrap: wrap, makespan: true},
			runReq{mk: func() workloads.Instance { return mk(minCores) }, cfg: cfg, wrap: wrap, makespan: true},
		)
	}
	mks, err := runAll(reqs)
	if err != nil {
		return nil, err
	}
	res.RunLog = logOf([]*Result{full, reduced}, mks)
	for i, fl := range flavors {
		t1, t48, tmin := mks[3*i].Trace.Makespan(), mks[3*i+1].Trace.Makespan(), mks[3*i+2].Trace.Makespan()
		res.Table1 = append(res.Table1, Table1Row{Flavor: fl,
			Speedup: float64(t1) / float64(t48), Exec48Cycles: t48, ExecMinCores: tmin})
	}

	if w != nil {
		tw := table(w)
		fmt.Fprintln(tw, "Figures 9/10: Freqmine FPGF loop")
		fmt.Fprintf(tw, "grains\t%d\n", res.Grains)
		fmt.Fprintf(tw, "chunks in dominant FPGF instance\t%d\n", res.Chunks)
		fmt.Fprintf(tw, "low parallel benefit grains\t%s\n", pct(res.LowPB))
		fmt.Fprintf(tw, "load balance on 48 cores\t%.1f\n", res.LoadBalance48)
		fmt.Fprintf(tw, "bin-packed minimum cores\t%d\n", res.MinCores)
		fmt.Fprintf(tw, "load balance on %d cores\t%.2f\n", res.MinCores, res.LoadBalanceMin)
		fmt.Fprintln(tw, "\nTable 1: RTS\tspeedup\t48-core exec\tmin-core exec")
		for _, row := range res.Table1 {
			fmt.Fprintf(tw, "%v\t%.2f\t%d\t%d\n", row.Flavor, row.Speedup,
				row.Exec48Cycles, row.ExecMinCores)
		}
		tw.Flush()
	}
	return res, nil
}
