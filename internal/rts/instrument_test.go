package rts

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"graingraph/internal/profile"
	"graingraph/internal/trace"
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

// instrumentedRun runs prog twice under cfg — once bare, once with a
// metrics registry attached — and returns both traces plus the registry.
func instrumentedRun(t *testing.T, cfg Config, prog func(Ctx)) (bare, inst *profile.Trace, met *trace.Metrics) {
	t.Helper()
	bare = Run(cfg, prog)
	met = trace.NewMetrics()
	icfg := cfg
	icfg.Metrics = met
	inst = Run(icfg, prog)
	return
}

// TestInstrumentationDoesNotPerturb: attaching a metrics registry must not
// change the simulation at all — same makespan, same per-worker time
// splits, same grain count.
func TestInstrumentationDoesNotPerturb(t *testing.T) {
	bare, inst, _ := instrumentedRun(t, smallConfig(4), fibProgram(10))
	if bare.Makespan() != inst.Makespan() {
		t.Fatalf("instrumentation changed makespan: %d vs %d", bare.Makespan(), inst.Makespan())
	}
	if len(bare.Tasks) != len(inst.Tasks) {
		t.Fatalf("instrumentation changed task count: %d vs %d", len(bare.Tasks), len(inst.Tasks))
	}
	for i := range bare.Workers {
		b, n := bare.Workers[i], inst.Workers[i]
		if b.Busy != n.Busy || b.Overhead != n.Overhead {
			t.Errorf("worker %d time split changed: busy %d/%d overhead %d/%d",
				i, b.Busy, n.Busy, b.Overhead, n.Overhead)
		}
	}
}

// TestMetricsConservation: the registry's per-worker time split must
// reconcile cycle-for-cycle with the profile's worker stats, its
// per-kind overhead split must sum to the total, and
// busy+overhead+idle must equal the makespan for every worker.
func TestMetricsConservation(t *testing.T) {
	for _, prog := range []struct {
		name string
		fn   func(Ctx)
	}{{"fib", fibProgram(11)}, {"loop", loopyProgram}} {
		t.Run(prog.name, func(t *testing.T) {
			_, tr, met := instrumentedRun(t, smallConfig(4), prog.fn)
			if met.Makespan != tr.Makespan() {
				t.Fatalf("metrics makespan %d, trace %d", met.Makespan, tr.Makespan())
			}
			for i := range met.Workers {
				wm := &met.Workers[i]
				ws := tr.Workers[i]
				if wm.Busy != ws.Busy {
					t.Errorf("worker %d busy: metrics %d, profile %d", i, wm.Busy, ws.Busy)
				}
				if wm.Overhead != ws.Overhead {
					t.Errorf("worker %d overhead: metrics %d, profile %d", i, wm.Overhead, ws.Overhead)
				}
				if got := met.OverheadOf(i); got != wm.Overhead {
					t.Errorf("worker %d overhead split sums to %d, total %d", i, got, wm.Overhead)
				}
				if sum := wm.Busy + wm.Overhead + wm.Idle; sum != met.Makespan {
					t.Errorf("worker %d busy+overhead+idle = %d ≠ makespan %d", i, sum, met.Makespan)
				}
			}
		})
	}
}

// TestDerivedInstantsMatchMetrics: the steal, park and resume instants
// derived from the profile must equal the registry's counters worker by
// worker — steals by thief — on random programs under every flavour, both
// schedulers and several core counts.
func TestDerivedInstantsMatchMetrics(t *testing.T) {
	var steals, parks, inlined uint64
	for seed := uint64(0); seed < 6; seed++ {
		for _, fl := range []Flavor{FlavorMIR, FlavorGCC, FlavorICC} {
			for _, sc := range []SchedulerKind{WorkStealing, CentralQueueSched} {
				for _, cores := range []int{1, 3, 4} {
					cfg := Config{Program: "rand", Cores: cores, Seed: seed,
						Flavor: fl, Scheduler: sc, ThrottleLimit: 1 + int(seed%3)}
					name := fmt.Sprintf("seed %d %v %v p%d", seed, fl, sc, cores)
					met := trace.NewMetrics()
					cfg.Metrics = met
					tr := Run(cfg, randomProgram(seed))
					got := make([]trace.WorkerMetrics, cores)
					for _, in := range tr.SchedInstants() {
						if in.Worker < 0 || in.Worker >= cores {
							t.Fatalf("%s: %v instant on out-of-range worker %d", name, in.Kind, in.Worker)
						}
						switch w := &got[in.Worker]; in.Kind {
						case profile.SchedSteal:
							w.Steals++
						case profile.SchedPark:
							w.Parks++
						case profile.SchedResume:
							w.Resumes++
						}
					}
					for i := range got {
						g, m := &got[i], met.W(i)
						if g.Steals != m.Steals || g.Parks != m.Parks || g.Resumes != m.Resumes {
							t.Errorf("%s worker %d: derived steals/parks/resumes %d/%d/%d, registry %d/%d/%d",
								name, i, g.Steals, g.Parks, g.Resumes, m.Steals, m.Parks, m.Resumes)
						}
					}
					steals += met.Steals()
					parks += met.Parks()
					inlined += met.InlinedSpawns()
				}
			}
		}
	}
	if steals == 0 || parks == 0 || inlined == 0 {
		t.Errorf("steals %d, parks %d, inlined spawns %d: want all nonzero so every rule is exercised",
			steals, parks, inlined)
	}
}

// TestMetricsBusyMatchesGrainExec: the per-definition exec aggregate
// must cover exactly the busy cycles of the run.
func TestMetricsBusyMatchesGrainExec(t *testing.T) {
	_, tr, met := instrumentedRun(t, smallConfig(4), loopyProgram)
	var defExec, busy profile.Time
	for _, d := range met.SortedDefs() {
		defExec += d.Exec
	}
	for i := range tr.Workers {
		busy += tr.Workers[i].Busy
	}
	if defExec != busy {
		t.Errorf("per-definition exec %d ≠ total busy %d", defExec, busy)
	}
}

// TestCentralQueueMetrics: the central-queue scheduler books queue ops
// instead of deque traffic.
func TestCentralQueueMetrics(t *testing.T) {
	cfg := smallConfig(4)
	cfg.Scheduler = CentralQueueSched
	_, _, met := instrumentedRun(t, cfg, fibProgram(9))
	if met.QueueOps() == 0 {
		t.Error("central-queue run recorded no queue ops")
	}
	if met.Steals() != 0 {
		t.Errorf("central-queue run recorded %d steals, want 0", met.Steals())
	}
}
