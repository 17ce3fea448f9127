// Ablation benchmarks: isolate the design choices DESIGN.md calls out and
// measure their effect on the headline results. Run with:
//
//	go test -bench=Ablation -benchtime=1x .
package graingraph_test

import (
	"testing"

	"graingraph/internal/cache"
	"graingraph/internal/machine"
	"graingraph/internal/metrics"
	"graingraph/internal/profile"
	"graingraph/internal/rts"
	"graingraph/internal/workloads"
)

// BenchmarkAblationScheduler compares work-stealing against the central
// queue across the task-based workloads (the generalization of Figure 11c/d
// beyond Strassen).
func BenchmarkAblationScheduler(b *testing.B) {
	cases := []struct {
		name string
		mk   func() workloads.Instance
	}{
		{"sort", func() workloads.Instance { return workloads.NewSort(workloads.DefaultSortParams()) }},
		{"fft", func() workloads.Instance { return workloads.NewFFT(workloads.OptimizedFFTParams()) }},
		{"strassen", func() workloads.Instance { return workloads.NewStrassen(workloads.FixedStrassenParams()) }},
		{"nqueens", func() workloads.Instance { return workloads.NewNQueens(workloads.DefaultNQueensParams()) }},
	}
	for _, cs := range cases {
		b.Run(cs.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ws, err := makespan(cs.mk(), rts.Config{Cores: 48, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				cq, err := makespan(cs.mk(), rts.Config{Cores: 48, Seed: 1,
					Scheduler: rts.CentralQueueSched})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(cq)/float64(ws), "centralqueue_slowdown_x")
			}
		})
	}
}

// BenchmarkAblationPagePolicy sweeps the three placement policies on Sort
// (§4.3.1's mechanism isolated).
func BenchmarkAblationPagePolicy(b *testing.B) {
	policies := []machine.Policy{machine.FirstTouch, machine.RoundRobin, machine.Node0}
	for _, pol := range policies {
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mk, err := makespan(workloads.NewSort(workloads.DefaultSortParams()),
					rts.Config{Cores: 48, Seed: 1, Policy: pol})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(mk), "makespan_cycles")
			}
		})
	}
}

// BenchmarkAblationSpawnCost sweeps the task-creation overhead and reports
// how the fraction of low-parallel-benefit grains tracks it — the knob
// behind every cutoff decision in the paper.
func BenchmarkAblationSpawnCost(b *testing.B) {
	for _, spawn := range []uint64{200, 800, 3200} {
		b.Run(costName(spawn), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				costs := rts.DefaultCosts()
				costs.Spawn = spawn
				inst := workloads.NewFFT(workloads.DefaultFFTParams())
				tr := rts.Run(rts.Config{Program: inst.Name(), Cores: 48, Seed: 1, Costs: costs},
					inst.Program())
				if err := inst.Verify(); err != nil {
					b.Fatal(err)
				}
				rep := metrics.Analyze(tr, nil, nil, metrics.Options{})
				low := 0
				for _, v := range rep.Benefit {
					if v < 1 {
						low++
					}
				}
				b.ReportMetric(100*float64(low)/float64(rep.Len()), "lowPB_pct")
			}
		})
	}
}

func costName(c uint64) string {
	switch c {
	case 200:
		return "spawn200"
	case 800:
		return "spawn800"
	default:
		return "spawn3200"
	}
}

// BenchmarkAblationMemoryBandwidth toggles the per-node bandwidth model to
// show it is what separates the page policies (without it, first-touch and
// round-robin average to the same latency).
func BenchmarkAblationMemoryBandwidth(b *testing.B) {
	for _, svc := range []uint64{0, 40} {
		name := "contention_on"
		if svc == 0 {
			name = "contention_off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var mk [2]uint64
				for pi, pol := range []machine.Policy{machine.FirstTouch, machine.RoundRobin} {
					cacheCfg := cache.DefaultConfig()
					cacheCfg.MemServiceCycles = svc
					inst := workloads.NewSort(workloads.DefaultSortParams())
					tr := rts.Run(rts.Config{Program: inst.Name(), Cores: 48, Seed: 1,
						Policy: pol, Cache: cacheCfg}, inst.Program())
					if err := inst.Verify(); err != nil {
						b.Fatal(err)
					}
					mk[pi] = tr.Makespan()
				}
				b.ReportMetric(float64(mk[0])/float64(mk[1]), "firsttouch_over_roundrobin_x")
			}
		})
	}
}

// BenchmarkAblationCoreSweep measures Sort's speedup curve across machine
// sizes — the scaling data behind all Figure 1 bars.
func BenchmarkAblationCoreSweep(b *testing.B) {
	for _, cores := range []int{1, 4, 12, 24, 48} {
		b.Run(coreName(cores), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mk, err := makespan(workloads.NewSort(workloads.DefaultSortParams()),
					rts.Config{Cores: cores, Seed: 1, Policy: machine.RoundRobin})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(mk), "makespan_cycles")
			}
		})
	}
}

// makespan simulates inst under cfg, verifies its result and returns the
// virtual makespan.
func makespan(inst workloads.Instance, cfg rts.Config) (uint64, error) {
	cfg.Program = inst.Name()
	tr := rts.Run(cfg, inst.Program())
	if err := inst.Verify(); err != nil {
		return 0, err
	}
	return tr.Makespan(), nil
}

func coreName(c int) string {
	names := map[int]string{1: "c1", 4: "c4", 12: "c12", 24: "c24", 48: "c48"}
	return names[c]
}

// BenchmarkAblationIPInterval compares the paper's two default interval
// choices for instantaneous parallelism (median vs minimum grain length).
func BenchmarkAblationIPInterval(b *testing.B) {
	inst := workloads.NewSort(workloads.DefaultSortParams())
	tr := rts.Run(rts.Config{Program: inst.Name(), Cores: 48, Seed: 1}, inst.Program())
	if err := inst.Verify(); err != nil {
		b.Fatal(err)
	}
	exec := metrics.Analyze(tr, nil, nil, metrics.Options{}).Exec
	choices := []struct {
		name     string
		interval profile.Time
	}{
		{"median_grain", metrics.MedianGrainLength(exec)},
		{"min_grain", minGrainLength(exec)},
	}
	for _, ch := range choices {
		b.Run(ch.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := metrics.Analyze(tr, nil, nil, metrics.Options{Interval: ch.interval})
				low := 0
				for _, ip := range rep.Parallelism {
					if ip < 48 {
						low++
					}
				}
				b.ReportMetric(100*float64(low)/float64(rep.Len()), "lowIP_pct")
				b.ReportMetric(float64(rep.IntervalSize), "interval_cycles")
			}
		})
	}
}

// minGrainLength returns the smallest positive grain execution time in
// exec — the paper's alternative interval choice — or 1 when there is none.
func minGrainLength(exec []int64) profile.Time {
	min := profile.Time(0)
	for _, e := range exec {
		if t := profile.Time(e); t > 0 && (min == 0 || t < min) {
			min = t
		}
	}
	if min == 0 {
		return 1
	}
	return min
}
