// native profiles a real Go computation — no simulation — on the native
// work-stealing executor and builds its grain graph from wall-clock
// timestamps, demonstrating the paper's point that grain graphs are
// "independent of profiling method".
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	"graingraph/internal/core"
	"graingraph/internal/exec"
	"graingraph/internal/export"
	"graingraph/internal/metrics"
	"graingraph/internal/profile"
)

func main() {
	// A real divide-and-conquer mergesort over real data.
	data := make([]int, 1<<18)
	for i := range data {
		data[i] = (i * 2654435761) % (1 << 20)
	}
	tmp := make([]int, len(data))

	var msort func(c exec.Ctx, lo, hi int)
	msort = func(c exec.Ctx, lo, hi int) {
		if hi-lo <= 1<<13 {
			sort.Ints(data[lo:hi])
			return
		}
		mid := (lo + hi) / 2
		c.Spawn(profile.Loc("main.go", 33, "msort"), func(c exec.Ctx) { msort(c, lo, mid) })
		c.Spawn(profile.Loc("main.go", 34, "msort"), func(c exec.Ctx) { msort(c, mid, hi) })
		c.TaskWait()
		merge(data, tmp, lo, mid, hi)
	}

	// Baseline on one worker for work deviation, then the parallel run.
	runIt := func(workers int) *profile.Trace {
		for i := range data {
			data[i] = (i * 2654435761) % (1 << 20)
		}
		return exec.Run(exec.Config{Program: "native-msort", Workers: workers},
			func(c exec.Ctx) { msort(c, 0, len(data)) })
	}
	baseline := runIt(1)
	trace := runIt(0) // GOMAXPROCS workers

	for i := 1; i < len(data); i++ {
		if data[i-1] > data[i] {
			log.Fatalf("not sorted at %d", i)
		}
	}
	fmt.Printf("sorted %d ints on %d workers: %.2fms (1 worker: %.2fms)\n",
		len(data), trace.Cores,
		float64(trace.Makespan())/1e6, float64(baseline.Makespan())/1e6)

	g := core.Build(trace)
	if err := g.Validate(); err != nil {
		log.Fatal(err)
	}
	rep := metrics.Analyze(trace, g, baseline, metrics.Options{})
	fmt.Printf("grains: %d, critical path %.2fms (%.1f%% of makespan)\n",
		trace.NumGrains(), float64(rep.CriticalPathLength)/1e6,
		100*float64(rep.CriticalPathLength)/float64(trace.Makespan()))

	lowPB := 0
	for _, b := range rep.Benefit {
		if b < 1 {
			lowPB++
		}
	}
	fmt.Printf("grains with parallel benefit < 1: %d — candidates for a higher cutoff\n", lowPB)

	core.Layout(g)
	f, err := os.Create("native-msort.graphml")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := export.GraphML(f, g, nil, export.ViewCritical); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote native-msort.graphml (critical-path view)")
}

func merge(d, t []int, lo, mid, hi int) {
	i, j, k := lo, mid, lo
	for i < mid && j < hi {
		if d[i] <= d[j] {
			t[k] = d[i]
			i++
		} else {
			t[k] = d[j]
			j++
		}
		k++
	}
	copy(t[k:hi], d[i:mid])
	copy(t[k:hi], d[j:hi])
	copy(d[lo:hi], t[lo:hi])
}
