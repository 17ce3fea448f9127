package rts

import (
	"fmt"
	"sort"
	"testing"

	"graingraph/internal/profile"
)

func testLoc(line int, fn string) profile.SrcLoc { return profile.Loc("test.go", line, fn) }

func smallConfig(cores int) Config {
	return Config{Program: "test", Cores: cores, Seed: 1}
}

func TestSingleTaskTrace(t *testing.T) {
	tr := Run(smallConfig(2), func(c Ctx) {
		c.Compute(1000)
	})
	if len(tr.Tasks) != 1 {
		t.Fatalf("tasks = %d, want 1 (root only)", len(tr.Tasks))
	}
	root := tr.Tasks[tr.Lookup(profile.RootID)]
	if root.ExecTime() != 1000 {
		t.Errorf("root exec = %d, want 1000", root.ExecTime())
	}
	if tr.Makespan() < 1000 {
		t.Errorf("makespan = %d, want >= 1000", tr.Makespan())
	}
	if len(root.Fragments) != 1 || len(root.Boundaries) != 0 {
		t.Errorf("root has %d fragments, %d boundaries", len(root.Fragments), len(root.Boundaries))
	}
}

func TestForkJoinStructure(t *testing.T) {
	tr := Run(smallConfig(2), func(c Ctx) {
		c.Compute(100)
		c.Spawn(testLoc(10, "bar"), func(c Ctx) { c.Compute(500) })
		c.Compute(50)
		c.Spawn(testLoc(11, "baz"), func(c Ctx) { c.Compute(500) })
		c.Compute(50)
		c.TaskWait()
		c.Compute(100)
	})
	if len(tr.Tasks) != 3 {
		t.Fatalf("tasks = %d, want 3", len(tr.Tasks))
	}
	root := tr.Tasks[tr.Lookup(profile.RootID)]
	// Fragments: pre-fork, between forks, fork..join, after join => 4.
	if len(root.Fragments) != 4 {
		t.Fatalf("root fragments = %d, want 4 (got boundaries %d)", len(root.Fragments), len(root.Boundaries))
	}
	if len(root.Boundaries) != 3 {
		t.Fatalf("root boundaries = %d, want 3", len(root.Boundaries))
	}
	wantKinds := []profile.BoundaryKind{profile.BoundaryFork, profile.BoundaryFork, profile.BoundaryJoin}
	for i, k := range wantKinds {
		if root.Boundaries[i].Kind != k {
			t.Errorf("boundary %d kind = %v, want %v", i, root.Boundaries[i].Kind, k)
		}
	}
	join := root.Boundaries[2]
	if len(join.Joined) != 2 {
		t.Errorf("join synchronized %d children, want 2", len(join.Joined))
	}
	bar := tr.Tasks[tr.Lookup("R.0")]
	baz := tr.Tasks[tr.Lookup("R.1")]
	if bar == nil || baz == nil {
		t.Fatal("children R.0 / R.1 missing")
	}
	if bar.Loc.Func != "bar" || baz.Loc.Func != "baz" {
		t.Errorf("child locations: %v, %v", bar.Loc, baz.Loc)
	}
	if bar.Parent != 0 || bar.Depth != 1 {
		t.Errorf("bar parent/depth = %v/%d", bar.Parent, bar.Depth)
	}
	if bar.CreateCost == 0 || bar.StartTime < bar.CreateTime {
		t.Errorf("bar timing: create %d cost %d start %d", bar.CreateTime, bar.CreateCost, bar.StartTime)
	}
	if bar.ExecTime() != 500 {
		t.Errorf("bar exec = %d, want 500", bar.ExecTime())
	}
}

func TestTaskWaitAllChildrenDone(t *testing.T) {
	// On one core the child runs only when the parent suspends... unless the
	// parent waits long enough that the child has not run: with 1 core the
	// child cannot run before the parent's taskwait suspension. Use 2 cores
	// and enough parent compute that the stolen child finishes first.
	tr := Run(smallConfig(2), func(c Ctx) {
		c.Spawn(testLoc(1, "quick"), func(c Ctx) { c.Compute(10) })
		c.Compute(1_000_000)
		c.TaskWait()
	})
	root := tr.Tasks[tr.Lookup(profile.RootID)]
	var join *profile.Boundary
	for i := range root.Boundaries {
		if root.Boundaries[i].Kind == profile.BoundaryJoin {
			join = &root.Boundaries[i]
		}
	}
	if join == nil {
		t.Fatal("no join boundary")
	}
	// The child finishes (in virtual time) long before the parent's wait, so
	// the suspension is at most the resume overhead. (Processing order may
	// still route through the suspend path; see the engine's coarse-grained
	// interleaving.)
	if join.Suspended > DefaultCosts().Resume {
		t.Errorf("parent suspended %d cycles, want <= resume cost %d",
			join.Suspended, DefaultCosts().Resume)
	}
	if join.Wait == 0 {
		t.Error("join bookkeeping cost should be nonzero")
	}
}

func TestSerialExecutionOneCore(t *testing.T) {
	tr := Run(smallConfig(1), func(c Ctx) {
		for i := 0; i < 4; i++ {
			c.Spawn(testLoc(1, "w"), func(c Ctx) { c.Compute(100) })
		}
		c.TaskWait()
	})
	if len(tr.Tasks) != 5 {
		t.Fatalf("tasks = %d, want 5", len(tr.Tasks))
	}
	for _, task := range tr.Tasks {
		if got := task.FirstCore(); got != 0 {
			t.Errorf("task %s ran on core %d, want 0", task.ID, got)
		}
	}
	// Single worker pops LIFO: last spawned child runs first.
	var starts []struct {
		id    profile.GrainID
		start uint64
	}
	for _, task := range tr.Tasks {
		if task.ID == profile.RootID {
			continue
		}
		starts = append(starts, struct {
			id    profile.GrainID
			start uint64
		}{task.ID, task.StartTime})
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i].start < starts[j].start })
	if starts[0].id != "R.3" {
		t.Errorf("first executed child = %s, want R.3 (LIFO)", starts[0].id)
	}
}

func TestWorkStealingSpreadsTasks(t *testing.T) {
	tr := Run(smallConfig(4), func(c Ctx) {
		for i := 0; i < 8; i++ {
			c.Spawn(testLoc(1, "w"), func(c Ctx) { c.Compute(100_000) })
		}
		c.TaskWait()
	})
	cores := map[int]bool{}
	for _, task := range tr.Tasks {
		if task.ID != profile.RootID {
			cores[task.FirstCore()] = true
		}
	}
	if len(cores) < 3 {
		t.Errorf("children ran on %d cores, want >= 3 (stealing broken?)", len(cores))
	}
}

func TestParallelSpeedup(t *testing.T) {
	prog := func(c Ctx) {
		for i := 0; i < 16; i++ {
			c.Spawn(testLoc(1, "w"), func(c Ctx) { c.Compute(1_000_000) })
		}
		c.TaskWait()
	}
	t1 := Run(smallConfig(1), prog).Makespan()
	t4 := Run(smallConfig(4), prog).Makespan()
	speedup := float64(t1) / float64(t4)
	if speedup < 3.0 {
		t.Errorf("4-core speedup = %.2f, want >= 3", speedup)
	}
}

func TestDeterminism(t *testing.T) {
	prog := func(c Ctx) {
		var rec func(c Ctx, d int)
		rec = func(c Ctx, d int) {
			if d == 0 {
				c.Compute(5000)
				return
			}
			c.Spawn(testLoc(1, "l"), func(c Ctx) { rec(c, d-1) })
			c.Spawn(testLoc(2, "r"), func(c Ctx) { rec(c, d-1) })
			c.TaskWait()
		}
		rec(c, 4)
	}
	a := Run(smallConfig(4), prog)
	b := Run(smallConfig(4), prog)
	if a.Makespan() != b.Makespan() {
		t.Errorf("same seed gave different makespans: %d vs %d", a.Makespan(), b.Makespan())
	}
	if len(a.Tasks) != len(b.Tasks) {
		t.Fatalf("different task counts: %d vs %d", len(a.Tasks), len(b.Tasks))
	}
	for i := range a.Tasks {
		ta, tb := a.Tasks[i], b.Tasks[i]
		if ta.ID != tb.ID || ta.StartTime != tb.StartTime || ta.EndTime != tb.EndTime ||
			ta.FirstCore() != tb.FirstCore() {
			t.Errorf("task %s differs between runs", ta.ID)
		}
	}
}

func TestPathEnumerationIDsStableAcrossCores(t *testing.T) {
	prog := func(c Ctx) {
		var rec func(c Ctx, d int)
		rec = func(c Ctx, d int) {
			if d == 0 {
				c.Compute(2000)
				return
			}
			c.Spawn(testLoc(1, "a"), func(c Ctx) { rec(c, d-1) })
			c.Spawn(testLoc(2, "b"), func(c Ctx) { rec(c, d-1) })
			c.TaskWait()
		}
		rec(c, 3)
	}
	ids := func(tr *profile.Trace) []string {
		var out []string
		for _, task := range tr.Tasks {
			out = append(out, string(task.ID))
		}
		sort.Strings(out)
		return out
	}
	a := ids(Run(smallConfig(1), prog))
	b := ids(Run(smallConfig(8), prog))
	if len(a) != len(b) {
		t.Fatalf("grain counts differ across machine size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("grain IDs differ across machine size: %s vs %s", a[i], b[i])
		}
	}
}

func TestICCThrottleInlines(t *testing.T) {
	cfg := smallConfig(1)
	cfg.Flavor = FlavorICC
	cfg.ThrottleLimit = 2
	tr := Run(cfg, func(c Ctx) {
		for i := 0; i < 10; i++ {
			c.Spawn(testLoc(1, "w"), func(c Ctx) { c.Compute(100) })
		}
		c.TaskWait()
	})
	inlined := 0
	for _, task := range tr.Tasks {
		if task.Inlined {
			inlined++
		}
	}
	if inlined == 0 {
		t.Error("ICC flavour with limit 2 inlined no tasks")
	}
	if inlined >= 10 {
		t.Errorf("all %d tasks inlined; first few should queue", inlined)
	}
}

func TestGCCThrottleInlines(t *testing.T) {
	cfg := smallConfig(1)
	cfg.Flavor = FlavorGCC
	tr := Run(cfg, func(c Ctx) {
		for i := 0; i < 100; i++ { // 64*1 = 64 queue limit
			c.Spawn(testLoc(1, "w"), func(c Ctx) { c.Compute(100) })
		}
		c.TaskWait()
	})
	inlined := 0
	for _, task := range tr.Tasks {
		if task.Inlined {
			inlined++
		}
	}
	if inlined == 0 {
		t.Error("GCC flavour never throttled despite 100 queued tasks on 1 core")
	}
}

func TestCentralQueueRuns(t *testing.T) {
	cfg := smallConfig(4)
	cfg.Scheduler = CentralQueueSched
	tr := Run(cfg, func(c Ctx) {
		for i := 0; i < 12; i++ {
			c.Spawn(testLoc(1, "w"), func(c Ctx) { c.Compute(50_000) })
		}
		c.TaskWait()
	})
	if len(tr.Tasks) != 13 {
		t.Fatalf("tasks = %d, want 13", len(tr.Tasks))
	}
	if tr.Scheduler != "central-queue" {
		t.Errorf("trace scheduler = %q", tr.Scheduler)
	}
	cores := map[int]bool{}
	for _, task := range tr.Tasks {
		if task.ID != profile.RootID {
			cores[task.FirstCore()] = true
		}
	}
	if len(cores) < 3 {
		t.Errorf("central queue used %d cores, want >= 3", len(cores))
	}
}

func TestImplicitFinalTaskWait(t *testing.T) {
	// Program "forgets" the taskwait; the implicit parallel-region barrier
	// must still join the children.
	tr := Run(smallConfig(2), func(c Ctx) {
		c.Spawn(testLoc(1, "w"), func(c Ctx) { c.Compute(1000) })
	})
	root := tr.Tasks[tr.Lookup(profile.RootID)]
	found := false
	for _, b := range root.Boundaries {
		if b.Kind == profile.BoundaryJoin && len(b.Joined) == 1 {
			found = true
		}
	}
	if !found {
		t.Error("implicit final taskwait did not record a join")
	}
	child := tr.Tasks[tr.Lookup("R.0")]
	if child == nil || child.EndTime == 0 {
		t.Error("child did not complete")
	}
}

func TestRecursionWithNestedWaits(t *testing.T) {
	tr := Run(smallConfig(4), func(c Ctx) {
		var fib func(c Ctx, n int)
		fib = func(c Ctx, n int) {
			if n < 2 {
				c.Compute(100)
				return
			}
			c.Spawn(testLoc(1, "fib"), func(c Ctx) { fib(c, n-1) })
			c.Spawn(testLoc(1, "fib"), func(c Ctx) { fib(c, n-2) })
			c.TaskWait()
			c.Compute(10)
		}
		fib(c, 6)
	})
	// fib(6) task tree: T(n) = T(n-1)+T(n-2)+2, T(0)=T(1)=0 tasks below.
	// Number of spawned tasks = 2*(fib-tree internal nodes) = 24; +1 root.
	if len(tr.Tasks) != 25 {
		t.Errorf("tasks = %d, want 25", len(tr.Tasks))
	}
	checkTraceInvariants(t, tr)
}

// checkTraceInvariants asserts structural soundness of any trace:
// fragment/boundary counts, timing monotonicity, per-core non-overlap,
// unique IDs.
func checkTraceInvariants(t *testing.T, tr *profile.Trace) {
	t.Helper()
	seen := map[profile.GrainID]bool{}
	type span struct {
		start, end uint64
		id         string
	}
	perCore := map[int][]span{}

	for _, task := range tr.Tasks {
		if seen[task.ID] {
			t.Errorf("duplicate grain ID %s", task.ID)
		}
		seen[task.ID] = true
		if len(task.Fragments) != len(task.Boundaries)+1 {
			t.Errorf("task %s: %d fragments, %d boundaries", task.ID, len(task.Fragments), len(task.Boundaries))
		}
		if task.EndTime < task.StartTime {
			t.Errorf("task %s: end %d < start %d", task.ID, task.EndTime, task.StartTime)
		}
		if task.ID != profile.RootID && task.StartTime < task.CreateTime {
			t.Errorf("task %s: started %d before created %d", task.ID, task.StartTime, task.CreateTime)
		}
		prevEnd := uint64(0)
		for i, f := range task.Fragments {
			if f.End < f.Start {
				t.Errorf("task %s fragment %d: end < start", task.ID, i)
			}
			if f.Start < prevEnd {
				t.Errorf("task %s fragment %d overlaps previous", task.ID, i)
			}
			prevEnd = f.End
			if f.End > f.Start {
				perCore[f.Core] = append(perCore[f.Core], span{f.Start, f.End, string(task.ID)})
			}
		}
	}
	for j, ck := range tr.Chunks {
		id := tr.ChunkID(j)
		if seen[id] {
			t.Errorf("duplicate chunk ID %s", id)
		}
		seen[id] = true
		if ck.End > ck.Start {
			perCore[ck.Thread] = append(perCore[ck.Thread], span{ck.Start, ck.End, string(id)})
		}
	}
	for core, spans := range perCore {
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		for i := 1; i < len(spans); i++ {
			if spans[i].start < spans[i-1].end {
				t.Errorf("core %d: %s [%d,%d) overlaps %s [%d,%d)", core,
					spans[i].id, spans[i].start, spans[i].end,
					spans[i-1].id, spans[i-1].start, spans[i-1].end)
			}
		}
	}
}

// Randomized structural property: arbitrary task trees keep all invariants.
func TestRandomTreesInvariantProperty(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		cfg := smallConfig(int(seed%7) + 1)
		cfg.Seed = seed
		shape := seed
		tr := Run(cfg, func(c Ctx) {
			var rec func(c Ctx, d int, s uint64)
			rec = func(c Ctx, d int, s uint64) {
				c.Compute(100 + s%1000)
				if d == 0 {
					return
				}
				kids := int(s%3) + 1
				for i := 0; i < kids; i++ {
					i := i
					c.Spawn(testLoc(i, "n"), func(c Ctx) {
						rec(c, d-1, s*2862933555777941757+uint64(i))
					})
					if s%2 == 0 {
						c.TaskWait()
					}
				}
				c.TaskWait()
				c.Compute(50)
			}
			rec(c, 4, shape)
		})
		checkTraceInvariants(t, tr)
	}
}

func TestMemoryAccessChargesTime(t *testing.T) {
	var makespanNoMem, makespanMem uint64
	{
		tr := Run(smallConfig(1), func(c Ctx) { c.Compute(1000) })
		makespanNoMem = tr.Makespan()
	}
	{
		tr := Run(smallConfig(1), func(c Ctx) {
			r := c.Alloc("data", 1<<20)
			c.Compute(1000)
			c.Load(r, 0, 1<<20)
		})
		makespanMem = tr.Makespan()
		root := tr.Tasks[tr.Lookup(profile.RootID)]
		counters := root.TotalCounters()
		if counters.Accesses == 0 || counters.L1Miss == 0 {
			t.Errorf("memory counters empty: %+v", counters)
		}
		if counters.Stall == 0 {
			t.Error("no stall cycles recorded for a 1 MiB cold scan")
		}
	}
	if makespanMem <= makespanNoMem {
		t.Errorf("memory access did not extend makespan: %d vs %d", makespanMem, makespanNoMem)
	}
}

func TestStaticLoopCoversIterationSpace(t *testing.T) {
	var cfg = smallConfig(4)
	tr := Run(cfg, func(c Ctx) {
		c.For(testLoc(1, "loop"), 0, 103, ForOpt{Schedule: profile.ScheduleStatic, Chunk: 10},
			func(c Ctx, lo, hi int) { c.Compute(uint64(hi-lo) * 100) })
	})
	verifyCoverage(t, tr, 0, 103)
	if len(tr.Loops) != 1 {
		t.Fatalf("loops = %d", len(tr.Loops))
	}
	if got := len(tr.Chunks); got != 11 {
		t.Errorf("chunks = %d, want 11", got)
	}
	// Static round-robin: chunk k on thread k%4.
	for _, ck := range tr.Chunks {
		if ck.Thread != ck.Seq%4 {
			t.Errorf("chunk %d on thread %d, want %d", ck.Seq, ck.Thread, ck.Seq%4)
		}
	}
}

func TestStaticLoopDefaultChunk(t *testing.T) {
	tr := Run(smallConfig(4), func(c Ctx) {
		c.For(testLoc(1, "loop"), 0, 100, ForOpt{Schedule: profile.ScheduleStatic},
			func(c Ctx, lo, hi int) { c.Compute(100) })
	})
	if got := len(tr.Chunks); got != 4 {
		t.Errorf("default static chunks = %d, want 4 (one per thread)", got)
	}
	verifyCoverage(t, tr, 0, 100)
}

func TestDynamicLoopCoverageAndGreedy(t *testing.T) {
	tr := Run(smallConfig(4), func(c Ctx) {
		c.For(testLoc(1, "loop"), 0, 50, ForOpt{Schedule: profile.ScheduleDynamic, Chunk: 3},
			func(c Ctx, lo, hi int) {
				// Iteration 7 is a whale; dynamic scheduling should let other
				// threads keep grabbing chunks meanwhile.
				for i := lo; i < hi; i++ {
					if i == 7 {
						c.Compute(500_000)
					} else {
						c.Compute(1000)
					}
				}
			})
	})
	verifyCoverage(t, tr, 0, 50)
	threads := map[int]int{}
	for _, ck := range tr.Chunks {
		threads[ck.Thread]++
	}
	if len(threads) < 3 {
		t.Errorf("dynamic loop used %d threads, want >= 3", len(threads))
	}
	// The whale thread should have executed fewer chunks than the busiest.
	var whaleThread int
	for _, ck := range tr.Chunks {
		if ck.Lo <= 7 && 7 < ck.Hi {
			whaleThread = ck.Thread
		}
	}
	maxChunks := 0
	for _, n := range threads {
		if n > maxChunks {
			maxChunks = n
		}
	}
	if threads[whaleThread] >= maxChunks {
		t.Errorf("whale thread executed %d chunks, max is %d; greedy rebalancing broken",
			threads[whaleThread], maxChunks)
	}
}

func TestGuidedLoopShrinkingChunks(t *testing.T) {
	tr := Run(smallConfig(4), func(c Ctx) {
		c.For(testLoc(1, "loop"), 0, 1000, ForOpt{Schedule: profile.ScheduleGuided},
			func(c Ctx, lo, hi int) { c.Compute(uint64(hi-lo) * 100) })
	})
	verifyCoverage(t, tr, 0, 1000)
	first, last := tr.Chunks[0], tr.Chunks[len(tr.Chunks)-1]
	if first.Hi-first.Lo <= last.Hi-last.Lo {
		t.Errorf("guided chunks not shrinking: first %d, last %d",
			first.Hi-first.Lo, last.Hi-last.Lo)
	}
}

func TestLoopNumThreads(t *testing.T) {
	tr := Run(smallConfig(8), func(c Ctx) {
		c.For(testLoc(1, "loop"), 0, 64, ForOpt{Schedule: profile.ScheduleDynamic, Chunk: 1, NumThreads: 3},
			func(c Ctx, lo, hi int) { c.Compute(10_000) })
	})
	verifyCoverage(t, tr, 0, 64)
	for _, ck := range tr.Chunks {
		if ck.Thread >= 3 {
			t.Errorf("chunk on thread %d despite NumThreads=3", ck.Thread)
		}
	}
	if len(tr.Loops[0].Threads) != 3 {
		t.Errorf("loop threads = %v", tr.Loops[0].Threads)
	}
}

func TestLoopBarrierAlignsWorkers(t *testing.T) {
	tr := Run(smallConfig(4), func(c Ctx) {
		c.For(testLoc(1, "a"), 0, 4, ForOpt{Schedule: profile.ScheduleStatic},
			func(c Ctx, lo, hi int) { c.Compute(uint64(1000 * (lo + 1))) })
		c.For(testLoc(2, "b"), 0, 4, ForOpt{Schedule: profile.ScheduleStatic},
			func(c Ctx, lo, hi int) { c.Compute(100) })
	})
	if len(tr.Loops) != 2 {
		t.Fatalf("loops = %d", len(tr.Loops))
	}
	// Second loop starts only after the first's barrier.
	if tr.Loops[1].Start < tr.Loops[0].End {
		t.Errorf("loop 2 started at %d before loop 1 barrier %d",
			tr.Loops[1].Start, tr.Loops[0].End)
	}
	for _, ck := range tr.Chunks {
		if ck.Loop == 1 && ck.Start < tr.Loops[0].End {
			t.Errorf("loop-1 chunk started before previous barrier")
		}
	}
}

func TestLoopBookkeepRecords(t *testing.T) {
	tr := Run(smallConfig(2), func(c Ctx) {
		c.For(testLoc(1, "loop"), 0, 10, ForOpt{Schedule: profile.ScheduleDynamic, Chunk: 2},
			func(c Ctx, lo, hi int) { c.Compute(1000) })
	})
	if len(tr.Bookkeeps) != 2 {
		t.Fatalf("bookkeep records = %d, want 2", len(tr.Bookkeeps))
	}
	totalGrabs := 0
	for _, bk := range tr.Bookkeeps {
		if bk.Total == 0 || bk.Grabs == 0 {
			t.Errorf("empty bookkeep record %+v", bk)
		}
		totalGrabs += bk.Grabs
	}
	// 5 chunks + 2 final empty grabs.
	if totalGrabs != 7 {
		t.Errorf("total grabs = %d, want 7", totalGrabs)
	}
}

func TestEmptyLoopIsNoop(t *testing.T) {
	tr := Run(smallConfig(2), func(c Ctx) {
		c.For(testLoc(1, "loop"), 5, 5, ForOpt{}, func(c Ctx, lo, hi int) {
			t.Error("body ran for empty loop")
		})
	})
	if len(tr.Loops) != 0 || len(tr.Chunks) != 0 {
		t.Error("empty loop produced records")
	}
}

func TestNestedParallelismPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("spawn in chunk", func() {
		Run(smallConfig(2), func(c Ctx) {
			c.For(testLoc(1, "l"), 0, 4, ForOpt{}, func(c Ctx, lo, hi int) {
				c.Spawn(testLoc(2, "x"), func(c Ctx) {})
			})
		})
	})
	mustPanic("for in chunk", func() {
		Run(smallConfig(2), func(c Ctx) {
			c.For(testLoc(1, "l"), 0, 4, ForOpt{}, func(c Ctx, lo, hi int) {
				c.For(testLoc(2, "m"), 0, 4, ForOpt{}, func(c Ctx, lo, hi int) {})
			})
		})
	})
	mustPanic("for in task", func() {
		Run(smallConfig(2), func(c Ctx) {
			c.Spawn(testLoc(1, "t"), func(c Ctx) {
				c.For(testLoc(2, "l"), 0, 4, ForOpt{}, func(c Ctx, lo, hi int) {})
			})
			c.TaskWait()
		})
	})
	mustPanic("for with outstanding tasks", func() {
		Run(smallConfig(1), func(c Ctx) {
			c.Spawn(testLoc(1, "t"), func(c Ctx) { c.Compute(10) })
			c.For(testLoc(2, "l"), 0, 4, ForOpt{}, func(c Ctx, lo, hi int) {})
		})
	})
}

func TestWorkerStats(t *testing.T) {
	tr := Run(smallConfig(2), func(c Ctx) {
		c.Spawn(testLoc(1, "w"), func(c Ctx) { c.Compute(10_000) })
		c.Spawn(testLoc(2, "w"), func(c Ctx) { c.Compute(10_000) })
		c.TaskWait()
	})
	if len(tr.Workers) != 2 {
		t.Fatalf("worker stats = %d", len(tr.Workers))
	}
	var busy, overhead uint64
	for _, ws := range tr.Workers {
		busy += ws.Busy
		overhead += ws.Overhead
	}
	if busy < 20_000 {
		t.Errorf("total busy = %d, want >= 20000", busy)
	}
	if overhead == 0 {
		t.Error("no overhead recorded")
	}
}

func TestMixedTasksThenLoop(t *testing.T) {
	tr := Run(smallConfig(4), func(c Ctx) {
		for i := 0; i < 4; i++ {
			c.Spawn(testLoc(1, "t"), func(c Ctx) { c.Compute(10_000) })
		}
		c.TaskWait()
		c.For(testLoc(2, "l"), 0, 16, ForOpt{Schedule: profile.ScheduleDynamic, Chunk: 1},
			func(c Ctx, lo, hi int) { c.Compute(5000) })
		c.Spawn(testLoc(3, "after"), func(c Ctx) { c.Compute(1000) })
		c.TaskWait()
	})
	if len(tr.Tasks) != 6 || len(tr.Chunks) != 16 {
		t.Fatalf("tasks=%d chunks=%d", len(tr.Tasks), len(tr.Chunks))
	}
	checkTraceInvariants(t, tr)
	// The post-loop task must start after the loop barrier.
	after := tr.Tasks[tr.Lookup("R.4")]
	if after.CreateTime < tr.Loops[0].End {
		t.Errorf("post-loop task created at %d before barrier %d", after.CreateTime, tr.Loops[0].End)
	}
}

func TestChunkSeqIdentification(t *testing.T) {
	tr := Run(smallConfig(2), func(c Ctx) {
		c.For(testLoc(1, "l"), 0, 10, ForOpt{Schedule: profile.ScheduleDynamic, Chunk: 5},
			func(c Ctx, lo, hi int) { c.Compute(100) })
	})
	ids := map[profile.GrainID]bool{}
	for j := range tr.Chunks {
		id := tr.ChunkID(j)
		if ids[id] {
			t.Errorf("duplicate chunk grain ID %s", id)
		}
		ids[id] = true
	}
	want := fmt.Sprintf("L0@t%d#0[0,5)", tr.Loops[0].StartThread)
	if !ids[profile.GrainID(want)] {
		t.Errorf("expected chunk ID %s, have %v", want, ids)
	}
}

// verifyCoverage asserts the chunks of the sole loop in tr exactly
// partition [lo,hi).
func verifyCoverage(t *testing.T, tr *profile.Trace, lo, hi int) {
	t.Helper()
	covered := make([]int, hi-lo)
	for _, ck := range tr.Chunks {
		for i := ck.Lo; i < ck.Hi; i++ {
			if i < lo || i >= hi {
				t.Fatalf("chunk [%d,%d) outside iteration space [%d,%d)", ck.Lo, ck.Hi, lo, hi)
			}
			covered[i-lo]++
		}
	}
	for i, n := range covered {
		if n != 1 {
			t.Fatalf("iteration %d covered %d times", i+lo, n)
		}
	}
}
