package metrics

import (
	"math"
	"testing"

	"graingraph/internal/core"
	"graingraph/internal/profile"
	"graingraph/internal/rts"
)

func loc(line int, fn string) profile.SrcLoc { return profile.Loc("test.go", line, fn) }

func run(cores int, seed uint64, prog func(rts.Ctx)) *profile.Trace {
	return rts.Run(rts.Config{Program: "m", Cores: cores, Seed: seed}, prog)
}

func TestParallelBenefitSeparatesCoarseAndFine(t *testing.T) {
	tr := run(2, 1, func(c rts.Ctx) {
		c.Spawn(loc(1, "tiny"), func(c rts.Ctx) { c.Compute(10) })
		c.Spawn(loc(2, "big"), func(c rts.Ctx) { c.Compute(1_000_000) })
		c.TaskWait()
	})
	rep := Analyze(tr, nil, nil, Options{})
	tiny := rep.RowIndexOf("R.0")
	big := rep.RowIndexOf("R.1")
	if tiny < 0 || big < 0 {
		t.Fatal("grains missing from report")
	}
	if b := rep.Benefit[tiny]; b >= 1 {
		t.Errorf("tiny grain parallel benefit = %f, want < 1", b)
	}
	if b := rep.Benefit[big]; b <= 1 {
		t.Errorf("big grain parallel benefit = %f, want > 1", b)
	}
	// The root has no parallelization cost.
	if b := rep.Benefit[rep.RowIndexOf(profile.RootID)]; !math.IsInf(b, 1) {
		t.Errorf("root parallel benefit = %f, want +Inf", b)
	}
}

func TestCriticalPathDominantChain(t *testing.T) {
	// One long chain (serial dependence) plus small independent tasks: the
	// critical path must include the chain's grains.
	tr := run(4, 1, func(c rts.Ctx) {
		c.Spawn(loc(1, "chain"), func(c rts.Ctx) {
			c.Compute(100_000)
			c.Spawn(loc(2, "chain2"), func(c rts.Ctx) {
				c.Compute(100_000)
				c.Spawn(loc(3, "chain3"), func(c rts.Ctx) { c.Compute(100_000) })
				c.TaskWait()
			})
			c.TaskWait()
		})
		for i := 0; i < 3; i++ {
			c.Spawn(loc(4, "small"), func(c rts.Ctx) { c.Compute(100) })
		}
		c.TaskWait()
	})
	g := core.Build(tr)
	rep := Analyze(tr, g, nil, Options{})
	if rep.CriticalPathLength < 300_000 {
		t.Errorf("critical path = %d, want >= 300000", rep.CriticalPathLength)
	}
	// The deepest chain grain must be marked critical.
	critical := map[profile.GrainID]bool{}
	for _, nid := range rep.CriticalNodes {
		critical[g.GrainID(g.GrainNum(nid))] = true
	}
	if !critical["R.0.0.0"] {
		t.Errorf("chain leaf not on critical path; critical grains: %v", critical)
	}
	// Critical flags set on graph nodes.
	marked := 0
	for n := core.NodeID(0); n < core.NodeID(g.NumNodes()); n++ {
		if g.Critical(n) {
			marked++
		}
	}
	if marked != len(rep.CriticalNodes) {
		t.Errorf("marked %d nodes, path has %d", marked, len(rep.CriticalNodes))
	}
}

func TestWorkDeviationAgainstBaseline(t *testing.T) {
	prog := func(c rts.Ctx) {
		r := c.Alloc("data", 1<<20)
		// Initialize on the master: first-touch places pages on node 0.
		c.Store(r, 0, 1<<20)
		for i := 0; i < 8; i++ {
			i := i
			c.Spawn(loc(1, "scan"), func(c rts.Ctx) {
				c.Load(r, int64(i)*(1<<17), 1<<17)
				c.Compute(1000)
			})
		}
		c.TaskWait()
	}
	base := run(1, 1, prog)
	par := run(8, 1, prog)
	rep := Analyze(par, nil, base, Options{})
	matched := 0
	for _, wd := range rep.WorkDev {
		if wd > 0 {
			matched++
		}
	}
	if matched < 8 {
		t.Errorf("work deviation matched %d grains, want >= 8", matched)
	}
}

func TestWorkDeviationDetectsRemoteInflation(t *testing.T) {
	// All data first-touched by the master on node 0. Under 48 cores,
	// most workers access remotely => deviation above 1 for off-socket
	// grains relative to the 1-core run where everything is local... but
	// caches also differ. Assert the aggregate direction: mean deviation
	// of scan tasks > 0.9 and at least some grains inflate.
	prog := func(c rts.Ctx) {
		r := c.Alloc("data", 8<<20)
		c.Store(r, 0, 8<<20)
		for i := 0; i < 32; i++ {
			i := i
			c.Spawn(loc(1, "scan"), func(c rts.Ctx) {
				c.Load(r, int64(i)*(8<<20)/32, (8<<20)/32)
			})
		}
		c.TaskWait()
	}
	base := run(1, 1, prog)
	par := run(48, 1, prog)
	rep := Analyze(par, nil, base, Options{})
	inflated := 0
	for row, num := range rep.Num {
		if par.GrainLoc(num).Func == "scan" && rep.WorkDev[row] > 1.05 {
			inflated++
		}
	}
	if inflated == 0 {
		t.Error("no scan grain shows work inflation on a 48-core NUMA run")
	}
}

func TestInstantaneousParallelismSerialVsParallel(t *testing.T) {
	// Serial chain: parallelism should be ~1 everywhere.
	serial := run(4, 1, func(c rts.Ctx) {
		var rec func(c rts.Ctx, d int)
		rec = func(c rts.Ctx, d int) {
			c.Compute(50_000)
			if d == 0 {
				return
			}
			c.Spawn(loc(1, "s"), func(c rts.Ctx) { rec(c, d-1) })
			c.TaskWait()
		}
		rec(c, 6)
	})
	rep := Analyze(serial, nil, nil, Options{})
	maxIP := 0
	for _, v := range rep.Timeline {
		if v > maxIP {
			maxIP = v
		}
	}
	if maxIP > 2 {
		t.Errorf("serial chain shows parallelism %d, want <= 2", maxIP)
	}

	// Wide fan-out: parallelism should reach ~4 on 4 cores.
	wide := run(4, 1, func(c rts.Ctx) {
		for i := 0; i < 16; i++ {
			c.Spawn(loc(1, "w"), func(c rts.Ctx) { c.Compute(500_000) })
		}
		c.TaskWait()
	})
	repW := Analyze(wide, nil, nil, Options{})
	maxW := 0
	for _, v := range repW.Timeline {
		if v > maxW {
			maxW = v
		}
	}
	if maxW < 4 {
		t.Errorf("wide program shows max parallelism %d, want >= 4", maxW)
	}
}

func TestConservativeLEQOptimistic(t *testing.T) {
	tr := run(4, 1, func(c rts.Ctx) {
		for i := 0; i < 10; i++ {
			c.Spawn(loc(1, "w"), func(c rts.Ctx) { c.Compute(100_000) })
		}
		c.TaskWait()
	})
	iv := profile.Time(10_000)
	opt := Analyze(tr, nil, nil, Options{Interval: iv, Flavor: IPOptimistic})
	con := Analyze(tr, nil, nil, Options{Interval: iv, Flavor: IPConservative})
	if len(opt.Timeline) != len(con.Timeline) {
		t.Fatalf("timeline lengths differ: %d vs %d", len(opt.Timeline), len(con.Timeline))
	}
	for i := range opt.Timeline {
		if con.Timeline[i] > opt.Timeline[i] {
			t.Fatalf("interval %d: conservative %d > optimistic %d", i, con.Timeline[i], opt.Timeline[i])
		}
	}
}

func TestScatterSiblingsNearWithWorkStealing(t *testing.T) {
	// Recursive divide-and-conquer with many more tasks than cores: with
	// work stealing most siblings run on the same or nearby cores (only the
	// top-level splits migrate), while a central queue lands siblings on
	// whichever cores won the contention — the paper's Figure 11c vs 11d.
	prog := func(c rts.Ctx) {
		var rec func(c rts.Ctx, d int)
		rec = func(c rts.Ctx, d int) {
			if d == 0 {
				c.Compute(20_000)
				return
			}
			c.Spawn(loc(1, "l"), func(c rts.Ctx) { rec(c, d-1) })
			c.Spawn(loc(2, "r"), func(c rts.Ctx) { rec(c, d-1) })
			c.TaskWait()
		}
		rec(c, 9)
	}
	tr := rts.Run(rts.Config{Program: "m", Cores: 48, Seed: 1}, prog)
	rep := Analyze(tr, nil, nil, Options{})
	var wsSum, wsN float64
	for row := range rep.Num {
		if rep.ID(row) != profile.RootID {
			wsSum += float64(rep.Scatter[row])
			wsN++
		}
	}
	cfg := rts.Config{Program: "m", Cores: 48, Seed: 1, Scheduler: rts.CentralQueueSched}
	trC := rts.Run(cfg, prog)
	repC := Analyze(trC, nil, nil, Options{})
	var cqSum, cqN float64
	for row := range repC.Num {
		if repC.ID(row) != profile.RootID {
			cqSum += float64(repC.Scatter[row])
			cqN++
		}
	}
	if wsSum/wsN >= cqSum/cqN {
		t.Errorf("work-stealing mean scatter %.2f not below central-queue %.2f",
			wsSum/wsN, cqSum/cqN)
	}
}

func TestLoopLoadBalanceImbalanced(t *testing.T) {
	// One whale iteration dominates: load balance far above 1 on many
	// cores, near 1 when few cores make chains long.
	prog := func(c rts.Ctx) {
		c.For(loc(1, "fpgf"), 0, 200, rts.ForOpt{Schedule: profile.ScheduleDynamic, Chunk: 1},
			func(c rts.Ctx, lo, hi int) {
				if lo == 57 {
					c.Compute(5_000_000)
				} else {
					c.Compute(10_000)
				}
			})
	}
	tr := rts.Run(rts.Config{Program: "m", Cores: 16, Seed: 1}, prog)
	rep := Analyze(tr, nil, nil, Options{})
	lb := rep.LoopLoadBalance[0]
	if lb < 3 {
		t.Errorf("imbalanced loop load balance = %.2f, want >> 1", lb)
	}

	tr2 := rts.Run(rts.Config{Program: "m", Cores: 2, Seed: 1}, prog)
	rep2 := Analyze(tr2, nil, nil, Options{})
	lb2 := rep2.LoopLoadBalance[0]
	if lb2 >= lb {
		t.Errorf("fewer cores should improve load balance: %.2f vs %.2f", lb2, lb)
	}
}

func TestLoopLoadBalanceBalanced(t *testing.T) {
	tr := rts.Run(rts.Config{Program: "m", Cores: 4, Seed: 1}, func(c rts.Ctx) {
		c.For(loc(1, "even"), 0, 64, rts.ForOpt{Schedule: profile.ScheduleDynamic, Chunk: 4},
			func(c rts.Ctx, lo, hi int) { c.Compute(uint64(hi-lo) * 10_000) })
	})
	rep := Analyze(tr, nil, nil, Options{})
	lb := rep.LoopLoadBalance[0]
	if lb > 1.2 {
		t.Errorf("balanced loop load balance = %.2f, want ~= 1 or below", lb)
	}
}

func TestUtilizationReflectsMemoryBehaviour(t *testing.T) {
	tr := run(2, 1, func(c rts.Ctx) {
		r := c.Alloc("data", 16<<20)
		c.Spawn(loc(1, "computey"), func(c rts.Ctx) {
			c.Compute(1_000_000)
			c.Load(r, 0, 4096)
		})
		c.Spawn(loc(2, "memory"), func(c rts.Ctx) {
			c.Compute(100)
			c.Load(r, 1<<20, 8<<20) // big cold scan
		})
		c.TaskWait()
	})
	rep := Analyze(tr, nil, nil, Options{})
	computey := rep.Util[rep.RowIndexOf("R.0")]
	memory := rep.Util[rep.RowIndexOf("R.1")]
	if computey < 2 {
		t.Errorf("compute-bound grain utilization = %.2f, want >= 2", computey)
	}
	if memory >= 2 {
		t.Errorf("memory-bound grain utilization = %.2f, want < 2", memory)
	}
}

func TestMedianGrainLength(t *testing.T) {
	grains := []int64{10, 30, 20, 0}
	if got := MedianGrainLength(grains); got != 20 {
		t.Errorf("median = %d, want 20", got)
	}
	if MedianGrainLength(nil) != 1 {
		t.Error("an empty grain list should return 1")
	}
}

func TestMedianPairwiseDistance(t *testing.T) {
	if d := medianPairwiseDistance([]int{5}); d != 0 {
		t.Errorf("singleton distance = %d", d)
	}
	if d := medianPairwiseDistance([]int{0, 0, 0}); d != 0 {
		t.Errorf("same-core distance = %d", d)
	}
	if d := medianPairwiseDistance([]int{0, 24}); d != 24 {
		t.Errorf("pair distance = %d, want 24", d)
	}
}

func TestAnalyzeTimelineCap(t *testing.T) {
	tr := run(2, 1, func(c rts.Ctx) {
		for i := 0; i < 4; i++ {
			c.Spawn(loc(1, "w"), func(c rts.Ctx) { c.Compute(1_000_000) })
		}
		c.TaskWait()
	})
	rep := Analyze(tr, nil, nil, Options{Interval: 1})
	if len(rep.Timeline) > maxIntervals {
		t.Errorf("timeline length %d exceeds cap %d", len(rep.Timeline), maxIntervals)
	}
	if rep.IntervalSize <= 1 {
		t.Errorf("interval not widened: %d", rep.IntervalSize)
	}
}
