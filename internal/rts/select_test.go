package rts

import (
	"bytes"
	"fmt"
	goruntime "runtime"
	"testing"

	"graingraph/internal/sim"
)

// bestActionScan is the step selector as it was before bestAction pruned
// idle workers' steal scans: every idle worker considers every other
// worker's deque top. It is the oracle TestBestActionMatchesScan holds
// bestAction to.
func (rt *runtime) bestActionScan() (action, bool) {
	best := action{}
	found := false
	ties := 1
	consider := func(cand action) {
		switch {
		case !found,
			cand.at < best.at,
			cand.at == best.at && cand.kind < best.kind:
			best = cand
			found = true
			ties = 1
		case cand.at == best.at && cand.kind == best.kind:
			ties++
			if rt.rng.IntN(ties) == 0 {
				best = cand
			}
		}
	}

	for _, w := range rt.workers {
		if w.next != nil {
			consider(action{w: w, t: w.next, kind: actNext,
				at: sim.MaxTime(w.clock, w.next.readyAt)})
			continue // forced: this worker can do nothing else first
		}
		if n := len(w.resume); n > 0 {
			t := w.resume[n-1]
			consider(action{w: w, t: t, kind: actResume,
				at: sim.MaxTime(w.clock, t.readyAt) + rt.cfg.Costs.Resume})
		}
		if t, ok := w.deque.PeekBottom(); ok {
			consider(action{w: w, t: t, kind: actPop,
				at: sim.MaxTime(w.clock, t.readyAt) + rt.cfg.Costs.Pop})
		}
		if rt.cfg.Scheduler == CentralQueueSched {
			if t, ok := rt.central.PeekTop(); ok {
				at := sim.MaxTime(sim.MaxTime(w.clock, rt.centralFree), t.readyAt) +
					rt.cfg.Costs.QueueOp
				consider(action{w: w, t: t, kind: actCentral, at: at})
			}
		} else if w.deque.Len() == 0 {
			// Steal candidates: earliest-available victim top; among ties the
			// victim is randomized at perform time.
			for _, v := range rt.workers {
				if v == w {
					continue
				}
				if t, ok := v.deque.PeekTop(); ok {
					consider(action{w: w, t: t, victim: v, kind: actSteal,
						at: sim.MaxTime(w.clock, t.readyAt) + rt.cfg.Costs.Steal})
				}
			}
		}
	}
	return best, found
}

// TestBestActionMatchesScan steps random programs under every flavour, both
// schedulers and 1 to 48 cores, and at every step runs the full scan and
// bestAction from the same generator state: both must pick the same action
// and leave the generator in the same state, so every later draw agrees.
func TestBestActionMatchesScan(t *testing.T) {
	seeds := uint64(8)
	if testing.Short() {
		seeds = 2
	}
	var steps, steals, idleScans int
	for seed := uint64(0); seed < seeds; seed++ {
		for _, fl := range []Flavor{FlavorMIR, FlavorGCC, FlavorICC} {
			for _, sc := range []SchedulerKind{WorkStealing, CentralQueueSched} {
				for _, cores := range []int{1, 3, 4, 8, 48} {
					name := fmt.Sprintf("seed %d %v %v p%d", seed, fl, sc, cores)
					cfg := Config{Program: "rand", Cores: cores, Seed: seed,
						Flavor: fl, Scheduler: sc, ThrottleLimit: 1 + int(seed%3)}
					rt := newRuntime(cfg, randomProgram(seed))
					for rt.live > 0 {
						start := *rt.pcg
						want, wok := rt.bestActionScan()
						afterScan := *rt.pcg
						*rt.pcg = start
						got, gok := rt.bestAction()
						if got != want || gok != wok {
							rt.pool.Close()
							t.Fatalf("%s step %d: bestAction = %+v (%v), full scan = %+v (%v)", name, steps, got, gok, want, wok)
						}
						if *rt.pcg != afterScan {
							rt.pool.Close()
							t.Fatalf("%s step %d: generator state differs after bestAction and the full scan", name, steps)
						}
						if sc == WorkStealing && len(rt.stealable) > 0 {
							for _, w := range rt.workers {
								if w.next == nil && w.deque.Len() == 0 {
									idleScans++
								}
							}
						}
						if got.kind == actSteal {
							steals++
						}
						steps++
						rt.perform(got)
					}
					rt.pool.Close()
				}
			}
		}
	}
	if steals == 0 || idleScans == 0 {
		t.Fatalf("%d steps, %d steals, %d idle-worker scans: want steals and idle workers facing stealable deques", steps, steals, idleScans)
	}
}

// simCarriers counts the goroutines whose stack runs through a sim
// carrier. Goroutines that other tests leave exiting do not count, so the
// figure is exact however loaded the machine is.
func simCarriers() int {
	buf := make([]byte, 1<<16)
	for {
		n := goruntime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("graingraph/internal/sim.(*carrier).run")) {
			count++
		}
	}
	return count
}

// TestRunLeavesNoGoroutines: Run closes its coroutine pool, so neither a
// finished run nor one stopped by a task body's panic leaves a carrier
// goroutine behind.
func TestRunLeavesNoGoroutines(t *testing.T) {
	before := simCarriers()
	for seed := uint64(0); seed < 4; seed++ {
		Run(Config{Program: "rand", Cores: 8, Seed: seed}, randomProgram(seed))
		if n := simCarriers(); n != before {
			t.Fatalf("seed %d: %d carrier goroutines after Run, %d before", seed, n, before)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the body's panic did not reach Run's caller")
			}
		}()
		Run(smallConfig(2), func(c Ctx) {
			for i := 0; i < 4; i++ {
				c.Spawn(testLoc(1, "parent"), func(c Ctx) {
					c.Spawn(testLoc(2, "child"), func(c Ctx) { c.Compute(1000) })
					c.TaskWait()
				})
			}
			c.Spawn(testLoc(3, "boom"), func(c Ctx) { panic("boom") })
			c.TaskWait()
		})
	}()
	if n := simCarriers(); n != before {
		t.Fatalf("%d carrier goroutines after a panicking Run, %d before", n, before)
	}
}

// BenchmarkRandomProgram48 is one 48-core work-stealing run of a random
// task tree: step selection, coroutine switches and bookkeeping, with no
// memory traffic.
func BenchmarkRandomProgram48(b *testing.B) {
	cfg := Config{Program: "rand", Cores: 48, Seed: 3}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		Run(cfg, randomProgram(uint64(i%8)))
	}
}
