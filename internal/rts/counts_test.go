package rts

import (
	"math/rand/v2"
	"testing"

	"graingraph/internal/profile"
	"graingraph/internal/timeline"
)

// fibProgram is a spawn-heavy recursive workload that exercises steals,
// parks and resumes on a few cores.
func fibProgram(n int) func(Ctx) {
	var fib func(c Ctx, n int)
	fib = func(c Ctx, n int) {
		if n < 2 {
			c.Compute(100)
			return
		}
		c.Spawn(testLoc(1, "fib"), func(c Ctx) { fib(c, n-1) })
		c.Spawn(testLoc(1, "fib"), func(c Ctx) { fib(c, n-2) })
		c.TaskWait()
		c.Compute(50)
	}
	return func(c Ctx) { fib(c, n) }
}

func loopyProgram(c Ctx) {
	c.Compute(500)
	c.For(testLoc(2, "loop"), 0, 64,
		ForOpt{Schedule: profile.ScheduleDynamic, Chunk: 4},
		func(c Ctx, lo, hi int) { c.Compute(uint64(300 * (hi - lo))) })
	c.Spawn(testLoc(3, "tail"), func(c Ctx) { c.Compute(2000) })
	c.TaskWait()
}

// randomProgram is a random task tree: up to five children per task, a
// taskwait after some spawns and at the end of every task, and, for some
// seeds, a parallel loop and a trailing task after the tree. The shape
// draws from one generator in execution order, so it depends on the
// schedule as well as the seed; the run is still deterministic.
func randomProgram(seed uint64) func(Ctx) {
	return func(c Ctx) {
		rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
		var rec func(c Ctx, d int)
		rec = func(c Ctx, d int) {
			c.Compute(uint64(rng.IntN(3000)))
			if d == 0 {
				return
			}
			for i, kids := 0, rng.IntN(6); i < kids; i++ {
				c.Spawn(testLoc(i, "n"), func(c Ctx) { rec(c, d-1) })
				c.Compute(uint64(rng.IntN(500)))
				if rng.IntN(4) == 0 {
					c.TaskWait()
				}
			}
			c.TaskWait()
			c.Compute(uint64(rng.IntN(200)))
		}
		rec(c, 4)
		c.TaskWait()
		if rng.IntN(2) == 0 {
			c.For(testLoc(9, "loop"), 0, 40, ForOpt{Schedule: profile.ScheduleDynamic, Chunk: 3},
				func(c Ctx, lo, hi int) { c.Compute(uint64(200 * (hi - lo))) })
			c.Spawn(testLoc(10, "tail"), func(c Ctx) { rec(c, 2) })
		}
	}
}

// TestDerivedCountsMatchRuntime: the scheduler event counts derived from
// the profile must equal the runtime's own per-worker counters on random
// programs under every flavour, both schedulers and several core counts.
func TestDerivedCountsMatchRuntime(t *testing.T) {
	var total profile.WorkerCounts
	for seed := uint64(0); seed < 6; seed++ {
		for _, fl := range []Flavor{FlavorMIR, FlavorGCC, FlavorICC} {
			for _, sc := range []SchedulerKind{WorkStealing, CentralQueueSched} {
				for _, cores := range []int{1, 3, 4} {
					cfg := Config{Program: "rand", Cores: cores, Seed: seed,
						Flavor: fl, Scheduler: sc, ThrottleLimit: 1 + int(seed%3)}
					rt := run(cfg, randomProgram(seed))
					got := rt.trace.WorkerCounts()
					if len(got) != cores {
						t.Fatalf("seed %d %v %v p%d: %d derived workers, want %d", seed, fl, sc, cores, len(got), cores)
					}
					for i, w := range rt.workers {
						if got[i] != w.count {
							t.Errorf("seed %d %v %v p%d worker %d:\nderived %+v\nruntime %+v",
								seed, fl, sc, cores, i, got[i], w.count)
						}
						total.Steals += w.count.Steals
						total.Parks += w.count.Parks
						total.Inlined += w.count.Inlined
						total.Pops += w.count.Pops
						total.QueueOps += w.count.QueueOps
					}
				}
			}
		}
	}
	if total.Steals == 0 || total.Parks == 0 || total.Inlined == 0 || total.Pops == 0 || total.QueueOps == 0 {
		t.Errorf("totals %+v: want steals, parks, inlined spawns, pops and queue ops all nonzero so every rule is exercised", total)
	}
}

// TestMetricsBusyMatchesGrainExec: the stats report's per-definition exec
// aggregate must cover exactly the busy cycles of the run.
func TestMetricsBusyMatchesGrainExec(t *testing.T) {
	tr := Run(smallConfig(4), loopyProgram)
	var defExec, busy profile.Time
	for _, d := range timeline.StatsFromTrace(tr).Defs {
		defExec += d.Exec
	}
	for i := range tr.Workers {
		busy += tr.Workers[i].Busy
	}
	if defExec != busy {
		t.Errorf("per-definition exec %d ≠ total busy %d", defExec, busy)
	}
}

// TestCentralQueueMetrics: the central-queue scheduler performs queue ops
// instead of deque traffic, and nothing is stolen.
func TestCentralQueueMetrics(t *testing.T) {
	cfg := smallConfig(4)
	cfg.Scheduler = CentralQueueSched
	rt := run(cfg, fibProgram(9))
	var queue, deque, steals uint64
	for _, w := range rt.workers {
		queue += w.count.QueueOps
		deque += w.count.Pushes + w.count.Pops
		steals += w.count.Steals
	}
	if queue == 0 {
		t.Error("central-queue run performed no queue ops")
	}
	if deque != 0 || steals != 0 {
		t.Errorf("central-queue run performed %d deque ops and %d steals, want 0", deque, steals)
	}
}
