package exec

import (
	"runtime"
	"sync/atomic"
	"testing"

	"graingraph/internal/core"
	"graingraph/internal/metrics"
	"graingraph/internal/profile"
)

func loc(line int, fn string) profile.SrcLoc { return profile.Loc("t.go", line, fn) }

func TestSingleTask(t *testing.T) {
	ran := false
	tr := Run(Config{Program: "one", Workers: 2}, func(c Ctx) { ran = true })
	if !ran {
		t.Fatal("program did not run")
	}
	if len(tr.Tasks) != 1 {
		t.Fatalf("tasks = %d, want 1", len(tr.Tasks))
	}
	if tr.Makespan() == 0 {
		t.Error("zero makespan")
	}
}

func TestForkJoinComputesCorrectly(t *testing.T) {
	var fib func(c Ctx, n int) uint64
	fib = func(c Ctx, n int) uint64 {
		if n < 2 {
			return uint64(n)
		}
		if n < 10 {
			return serialFib(n)
		}
		var a, b uint64
		c.Spawn(loc(1, "fib"), func(c Ctx) { a = fib(c, n-1) })
		c.Spawn(loc(2, "fib"), func(c Ctx) { b = fib(c, n-2) })
		c.TaskWait()
		return a + b
	}
	var result uint64
	tr := Run(Config{Workers: 4}, func(c Ctx) { result = fib(c, 20) })
	if result != 6765 {
		t.Fatalf("fib(20) = %d, want 6765", result)
	}
	if len(tr.Tasks) < 10 {
		t.Errorf("tasks = %d, want a real tree", len(tr.Tasks))
	}
}

func serialFib(n int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	return serialFib(n-1) + serialFib(n-2)
}

func TestAllTasksExecuteExactlyOnce(t *testing.T) {
	const n = 500
	var count atomic.Int64
	Run(Config{Workers: 8}, func(c Ctx) {
		for i := 0; i < n; i++ {
			c.Spawn(loc(1, "w"), func(c Ctx) {
				count.Add(1)
			})
		}
		c.TaskWait()
	})
	if got := count.Load(); got != n {
		t.Fatalf("executed %d tasks, want %d", got, n)
	}
}

func TestNestedWaits(t *testing.T) {
	var total atomic.Int64
	tr := Run(Config{Workers: 4}, func(c Ctx) {
		var rec func(c Ctx, d int)
		rec = func(c Ctx, d int) {
			total.Add(1)
			if d == 0 {
				return
			}
			for i := 0; i < 3; i++ {
				c.Spawn(loc(1, "n"), func(c Ctx) { rec(c, d-1) })
			}
			c.TaskWait()
			total.Add(1)
		}
		rec(c, 4)
	})
	// Nodes: 1+3+9+27+81 = 121; internal nodes count twice: +40.
	if got := total.Load(); got != 121+40 {
		t.Fatalf("total = %d, want 161", got)
	}
	checkStructure(t, tr)
}

func checkStructure(t *testing.T, tr *profile.Trace) {
	t.Helper()
	ids := map[profile.GrainID]bool{}
	for _, task := range tr.Tasks {
		if ids[task.ID] {
			t.Errorf("duplicate grain ID %s", task.ID)
		}
		ids[task.ID] = true
		if len(task.Fragments) != len(task.Boundaries)+1 {
			t.Errorf("task %s: %d fragments vs %d boundaries",
				task.ID, len(task.Fragments), len(task.Boundaries))
		}
		if task.EndTime < task.StartTime {
			t.Errorf("task %s: negative duration", task.ID)
		}
	}
	// The references between the records hold.
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestGrainGraphFromNativeTrace(t *testing.T) {
	tr := Run(Config{Workers: 4}, func(c Ctx) {
		for i := 0; i < 8; i++ {
			c.Spawn(loc(1, "w"), func(c Ctx) {
				busyWork(2000)
			})
		}
		c.TaskWait()
	})
	g := core.Build(tr)
	if err := g.Validate(); err != nil {
		t.Fatalf("native trace produced invalid grain graph: %v", err)
	}
	rep := metrics.Analyze(tr, g, nil, metrics.Options{})
	if rep.CriticalPathLength == 0 {
		t.Error("no critical path")
	}
	if rep.Len() != 9 {
		t.Errorf("grains = %d, want 9", rep.Len())
	}
}

func TestWorkDeviationAcrossWorkerCounts(t *testing.T) {
	prog := func(c Ctx) {
		for i := 0; i < 16; i++ {
			c.Spawn(loc(1, "w"), func(c Ctx) { busyWork(20000) })
		}
		c.TaskWait()
	}
	base := Run(Config{Workers: 1}, prog)
	par := Run(Config{Workers: 4}, prog)
	rep := metrics.Analyze(par, nil, base, metrics.Options{})
	matched := 0
	for _, wd := range rep.WorkDev {
		if wd > 0 {
			matched++
		}
	}
	if matched < 16 {
		t.Errorf("work deviation matched %d grains, want >= 16", matched)
	}
}

func TestParallelForCoversRange(t *testing.T) {
	var hits [100]atomic.Int32
	Run(Config{Workers: 4}, func(c Ctx) {
		ParallelFor(c, loc(1, "loop"), 0, 100, 7, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
	})
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("iteration %d executed %d times", i, hits[i].Load())
		}
	}
}

func TestUsesMultipleWorkers(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >= 2 OS-schedulable processors for stealing to engage")
	}
	tr := Run(Config{Workers: 4}, func(c Ctx) {
		for i := 0; i < 32; i++ {
			c.Spawn(loc(1, "w"), func(c Ctx) { busyWork(100000) })
		}
		c.TaskWait()
	})
	cores := map[int]bool{}
	for _, task := range tr.Tasks {
		if task.ID != profile.RootID && len(task.Fragments) > 0 {
			cores[task.Fragments[0].Core] = true
		}
	}
	if len(cores) < 2 {
		t.Errorf("all tasks ran on one worker; stealing broken?")
	}
}

// busyWork spins for roughly n iterations of real work.
//
//go:noinline
func busyWork(n int) uint64 {
	var acc uint64 = 1
	for i := 0; i < n; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	return acc
}
