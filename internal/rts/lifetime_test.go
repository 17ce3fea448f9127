package rts

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	goruntime "runtime"
	"testing"

	"graingraph/internal/sched"
)

// lifetimeProgram is a random fork-join program in which one task in three
// returns without waiting for its children, so children outlive their
// parents. It opens with a burst of leaves wider than GCC's queue limit, and
// fans out enough for ICC's deque limit, so both throttles inline children.
func lifetimeProgram(seed uint64, cores int) func(Ctx) {
	return func(c Ctx) {
		rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
		for i := 0; i < 64*cores+16; i++ {
			c.Spawn(testLoc(1, "burst"), func(c Ctx) { c.Compute(uint64(rng.IntN(5000))) })
		}
		var rec func(c Ctx, d int)
		rec = func(c Ctx, d int) {
			c.Compute(uint64(rng.IntN(2000)))
			if d == 0 {
				return
			}
			for i, kids := 0, rng.IntN(10); i < kids; i++ {
				c.Spawn(testLoc(2, "node"), func(c Ctx) { rec(c, d-1) })
				c.Compute(uint64(rng.IntN(300)))
				if rng.IntN(6) == 0 {
					c.TaskWait()
				}
			}
			if rng.IntN(3) > 0 {
				c.TaskWait()
			}
			c.Compute(uint64(rng.IntN(200)))
		}
		rec(c, 3)
	}
}

// dequeTasks lists d's tasks top to bottom and leaves d as it was: each task
// is stolen from the top and pushed back at the bottom.
func dequeTasks(d *sched.Deque[*task]) []*task {
	out := make([]*task, d.Len())
	for i := range out {
		out[i], _ = d.StealTop()
		d.PushBottom(out[i])
	}
	return out
}

// reachable lists every task the runtime can reach between steps: from the
// root, the forced slots, the resume stacks and the queues, following
// parent and notifyOnDone pointers. Each task maps to the kind of place
// its first route starts from.
func (rt *runtime) reachable() map[*task]string {
	seen := map[*task]string{}
	var visit func(t *task, from string)
	visit = func(t *task, from string) {
		for ; t != nil; t = t.parent {
			if _, ok := seen[t]; ok {
				return
			}
			seen[t] = from
			visit(t.notifyOnDone, from)
		}
	}
	visit(rt.root, "the root")
	for _, w := range rt.workers {
		visit(w.next, "a forced slot")
		for _, t := range w.resume {
			visit(t, "a resume stack")
		}
		for _, t := range dequeTasks(&w.deque) {
			visit(t, "a deque")
		}
	}
	for _, t := range dequeTasks(&rt.central) {
		visit(t, "the central queue")
	}
	return seen
}

// TestTaskLifetimes steps random programs whose parents may return before
// their children, under every flavour and both schedulers. After every step
// each task on the free list must have returned with no unfinished child,
// appear there once, and be unreachable; no step may act on a freed task.
// Each trace must validate and equal the trace of a plain Run.
func TestTaskLifetimes(t *testing.T) {
	var frees, freedByChild int
	inlined := map[Flavor]int{}
	for seed := uint64(0); seed < 4; seed++ {
		for _, fl := range []Flavor{FlavorMIR, FlavorGCC, FlavorICC} {
			for _, sc := range []SchedulerKind{WorkStealing, CentralQueueSched} {
				for _, cores := range []int{1, 3, 8} {
					name := fmt.Sprintf("seed %d %v %v p%d", seed, fl, sc, cores)
					cfg := Config{Program: "lifetimes", Cores: cores, Seed: seed,
						Flavor: fl, Scheduler: sc, ThrottleLimit: 1 + int(seed%3)}
					rt := newRuntime(cfg, lifetimeProgram(seed, cores))
					freed := map[*task]bool{}
					for step := 0; rt.live > 0; step++ {
						a, ok := rt.bestAction()
						if !ok {
							rt.pool.Close()
							t.Fatalf("%s step %d: no runnable action", name, step)
						}
						if freed[a.t] {
							rt.pool.Close()
							t.Fatalf("%s step %d: action %d takes a freed task", name, step, a.kind)
						}
						rt.perform(a)
						onList := map[*task]bool{}
						for _, f := range rt.free {
							if onList[f] {
								rt.pool.Close()
								t.Fatalf("%s step %d: a task is on the free list twice", name, step)
							}
							onList[f] = true
							if freed[f] {
								continue
							}
							if !f.returned || f.outstanding != 0 || f == rt.root {
								rt.pool.Close()
								t.Fatalf("%s step %d: freed task %s: returned %v, %d unfinished children, root %v",
									name, step, f.rec.ID, f.returned, f.outstanding, f == rt.root)
							}
							frees++
							if f != a.t {
								freedByChild++
							}
						}
						freed = onList
						for r, from := range rt.reachable() {
							if freed[r] {
								rt.pool.Close()
								t.Fatalf("%s step %d: freed task reachable from %s", name, step, from)
							}
						}
					}
					rt.pool.Close()
					rt.finalize()
					again := Run(cfg, lifetimeProgram(seed, cores))
					if !reflect.DeepEqual(rt.trace, again) {
						t.Fatalf("%s: the stepped run and Run give different traces", name)
					}
					if err := rt.trace.Validate(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for _, w := range rt.workers {
						inlined[fl] += int(w.count.Inlined)
					}
				}
			}
		}
	}
	if frees == 0 || freedByChild == 0 || inlined[FlavorGCC] == 0 || inlined[FlavorICC] == 0 {
		t.Fatalf("%d tasks freed, %d of them by a child finishing after its parent returned, %d GCC and %d ICC children inlined: want all nonzero",
			frees, freedByChild, inlined[FlavorGCC], inlined[FlavorICC])
	}
}

// spawnTree is the fixed program the spawn bounds are taken on: root →
// 100 tasks → 99 tasks each, spawnTreeTasks tasks in all.
func spawnTree(c Ctx) {
	for i := 0; i < 100; i++ {
		c.Spawn(testLoc(1, "outer"), func(c Ctx) {
			for j := 0; j < 99; j++ {
				c.Spawn(testLoc(2, "inner"), func(c Ctx) { c.Compute(100) })
			}
			c.TaskWait()
		})
	}
}

const spawnTreeTasks = 1 + 100 + 9900

// TestSpawnAllocationBound pins how often one spawned task allocates on
// spawnTree: only its share of the record slabs, the ID arena, the
// arenas, the trace's task list and the free lists, 0.19 allocations per
// task. The bodies capture nothing, a task's runtime state, Ctx and
// coroutine are recycled, and its ID is cut from the run's ID arena, so
// none of them allocates once the run has warmed up. Minting each ID on
// its own took two allocations more (2.19).
func TestSpawnAllocationBound(t *testing.T) {
	if testing.Short() {
		t.Skip("counts allocations over whole runs")
	}
	cfg := Config{Program: "spawn-allocs", Cores: 8, Seed: 1}
	if n := len(Run(cfg, spawnTree).Tasks); n != spawnTreeTasks {
		t.Fatalf("program spawned %d tasks, want %d", n, spawnTreeTasks)
	}
	perTask := testing.AllocsPerRun(3, func() { Run(cfg, spawnTree) }) / spawnTreeTasks
	const bound = 0.21
	t.Logf("%.2f allocations per task", perTask)
	if perTask > bound {
		t.Fatalf("%.2f allocations per spawned task, bound %.2f", perTask, bound)
	}
}

// TestSpawnBytesBound pins what one spawned task allocates in bytes on
// spawnTree: its 152-byte record, its fragments and boundaries at exact
// length, its joined entry, its ID's bytes and its share of the trace's
// task list, of part-filled slab chunks and of the run's fixed set-up:
// 566 bytes per task, bounded at 590. IDs minted one by one and the
// 168-byte records with 72-byte boundaries took 600.
func TestSpawnBytesBound(t *testing.T) {
	if testing.Short() {
		t.Skip("counts bytes over whole runs")
	}
	cfg := Config{Program: "spawn-bytes", Cores: 8, Seed: 1}
	Run(cfg, spawnTree) // the first run sizes the shared free lists
	const runs = 3
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for range runs {
		Run(cfg, spawnTree)
	}
	goruntime.ReadMemStats(&after)
	perTask := float64(after.TotalAlloc-before.TotalAlloc) / (runs * spawnTreeTasks)
	const bound = 590
	t.Logf("%.1f bytes per task", perTask)
	if perTask > bound {
		t.Fatalf("%.1f bytes allocated per spawned task, bound %d", perTask, bound)
	}
}
