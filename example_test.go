package graingraph_test

import (
	"fmt"
	"io"
	"log"
	"slices"
	"sort"

	"graingraph/internal/binpack"
	"graingraph/internal/core"
	"graingraph/internal/export"
	"graingraph/internal/expt"
	"graingraph/internal/highlight"
	"graingraph/internal/metrics"
	"graingraph/internal/profile"
	"graingraph/internal/rts"
	"graingraph/internal/workloads"
)

// Profile a task-parallel Fibonacci on the simulated 48-core machine, build
// its grain graph, derive the paper's metrics, and export GraphML (yEd's
// format) with problem highlighting.
func Example_quickstart() {
	// 1. Write an OpenMP-style task program against the rts API.
	var fib func(c rts.Ctx, n int) uint64
	fib = func(c rts.Ctx, n int) uint64 {
		if n < 2 {
			c.Compute(10)
			return uint64(n)
		}
		if n < 12 { // cutoff: run small subtrees serially
			c.Compute(uint64(1) << uint(n-8) * 100)
			return serialFib(n-1) + serialFib(n-2)
		}
		var a, b uint64
		c.Spawn(profile.Loc("example_test.go", 38, "fib"), func(c rts.Ctx) { a = fib(c, n-1) })
		c.Spawn(profile.Loc("example_test.go", 39, "fib"), func(c rts.Ctx) { b = fib(c, n-2) })
		c.TaskWait()
		return a + b
	}

	var result uint64
	program := func(c rts.Ctx) { result = fib(c, 24) }

	// 2. Run it on the simulated machine, and once on 1 core as the
	//    work-deviation baseline.
	baseline := rts.Run(rts.Config{Program: "fib", Cores: 1, Seed: 1}, program)
	trace := rts.Run(rts.Config{Program: "fib", Cores: 48, Seed: 1}, program)
	fmt.Printf("fib(24) = %d across %d grains, makespan %d cycles (%.1fx speedup)\n",
		result, trace.NumGrains(), trace.Makespan(),
		float64(baseline.Makespan())/float64(trace.Makespan()))

	// 3. Build the grain graph and derive the metrics.
	graph := core.Build(trace)
	report := metrics.Analyze(trace, graph, baseline, metrics.Options{})
	assessment := highlight.EvaluateWith(report, highlight.Defaults(48, 12), nil)
	for _, row := range assessment.Summarize().Rows {
		fmt.Printf("%-36s %4d grains (%.1f%%)\n", row.Problem, row.Count, 100*row.Affected)
	}

	// 4. Export for yEd: problems coloured red to yellow, the rest dimmed.
	core.Layout(graph)
	if err := export.GraphML(io.Discard, graph, assessment, export.ViewParallelBenefit, nil); err != nil {
		log.Fatal(err)
	}
	// Output:
	// fib(24) = 46368 across 1219 grains, makespan 62250 cycles (29.8x speedup)
	// low-parallel-benefit                 1218 grains (99.9%)
	// work-inflation                          0 grains (0.0%)
	// low-parallelism                      1219 grains (100.0%)
	// high-scatter                          150 grains (12.3%)
	// poor-memory-hierarchy-utilization       0 grains (0.0%)
}

func serialFib(n int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	return serialFib(n-1) + serialFib(n-2)
}

// Reproduce the paper's §2 discovery: 376.kdtree's cutoff has no effect
// because kdnode::sweeptree() forgets to increment the recursion depth, a
// bug that "escaped both the programmer and SPEC quality control for over
// three years" and that the grain graph reveals at a glance.
func Example_kdtreeBug() {
	report := func(label string, p workloads.KdTreeParams) *expt.Result {
		r, err := expt.Run(workloads.NewKdTree(p), expt.Config{Cores: 48, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		maxDepth := 0
		for _, t := range r.Trace.Tasks {
			maxDepth = max(maxDepth, int(t.Depth))
		}
		fmt.Printf("%-48s grains=%4d  max task depth=%2d  makespan=%d\n",
			label, r.Trace.NumGrains(), maxDepth, r.Trace.Makespan())
		return r
	}
	fmt.Println("== 376.kdtree, SPEC small input, cutoff 2 ==")
	buggy := report("original (missing depth increment)", workloads.DefaultKdTreeParams())
	report("fixed (depth incremented, separate sweep cutoff)", workloads.FixedKdTreeParams())

	// The performance consequence at evaluation scale, measured against a
	// common serial baseline (the fixed program on one core), as in the
	// paper's Figure 1.
	baseT1, err := makespan(workloads.NewKdTree(workloads.PerfKdTreeParams(true)), rts.Config{Cores: 1, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	for _, fixed := range []bool{false, true} {
		t48, err := makespan(workloads.NewKdTree(workloads.PerfKdTreeParams(fixed)), rts.Config{Cores: 48, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		name := "buggy"
		if fixed {
			name = "fixed"
		}
		fmt.Printf("48-core speedup over serial, %s: %.1f\n", name, float64(baseT1)/float64(t48))
	}

	// Export the buggy graph, the Figure 2 view: the runaway recursion is an
	// ever-deepening chain of task columns.
	core.Layout(buggy.Graph)
	if err := export.GraphML(io.Discard, buggy.Graph, buggy.Assessment, export.ViewStructure, nil); err != nil {
		log.Fatal(err)
	}
	// Output:
	// == 376.kdtree, SPEC small input, cutoff 2 ==
	// original (missing depth increment)               grains= 400  max task depth= 8  makespan=44868
	// fixed (depth incremented, separate sweep cutoff) grains=  62  max task depth= 5  makespan=30568
	// 48-core speedup over serial, buggy: 2.8
	// 48-core speedup over serial, fixed: 5.1
}

// Reproduce the paper's §4.3.4 resource optimization: Freqmine's FPGF loop
// is inherently imbalanced (a handful of huge grains spaced irregularly
// across the iteration range), so instead of fighting the load balance,
// compute the minimum number of cores that preserves the makespan (the
// paper's Gecode bin-packing step) and release the rest.
func Example_freqminePack() {
	res, err := expt.Run(workloads.NewFreqmine(workloads.DefaultFreqmineParams()), expt.Config{Cores: 48, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// Find the dominant FPGF instance and its chunk-size distribution.
	loop := dominantLoop(res.Trace)
	var durations []uint64
	for _, ck := range res.Trace.Chunks {
		if ck.Loop == loop.ID {
			durations = append(durations, ck.Duration())
		}
	}
	sorted := slices.Clone(durations)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	fmt.Printf("dominant FPGF instance: %d chunks; largest five: %v\n", len(durations), sorted[:5])
	fmt.Printf("median chunk: %d cycles — disproportionate sizes, irregularly spaced\n", sorted[len(sorted)/2])
	lb := metrics.LoopLoadBalance(res.Trace, loop.ID)
	fmt.Printf("load balance on 48 cores: %.1f (threshold 1)\n", lb)

	// Bin-pack into the observed makespan.
	capacity := uint64(loop.End - loop.Start)
	packed := binpack.Pack(durations, capacity)
	fmt.Printf("bin-packing %d chunks into %d-cycle bins: %d cores suffice (optimal proven: %v)\n",
		len(durations), capacity, packed.Bins, packed.Optimal)

	// Re-run with num_threads(minCores) on the dominant instance.
	p := workloads.DefaultFreqmineParams()
	p.NumThreads = packed.Bins
	reduced, err := expt.Run(workloads.NewFreqmine(p), expt.Config{Cores: 48, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	lb2 := metrics.LoopLoadBalance(reduced.Trace, dominantLoop(reduced.Trace).ID)
	fmt.Printf("with num_threads(%d) on the dominant instance:\n", packed.Bins)
	fmt.Printf("load balance: %.2f (was %.1f)\n", lb2, lb)
	fmt.Printf("makespan: %d cycles vs %d on all 48 cores — %d cores freed for other work\n",
		reduced.Trace.Makespan(), res.Trace.Makespan(), 48-packed.Bins)
	// Output:
	// dominant FPGF instance: 1292 chunks; largest five: [2754560 2716590 2631518 2596503 2581151]
	// median chunk: 2932 cycles — disproportionate sizes, irregularly spaced
	// load balance on 48 cores: 32.4 (threshold 1)
	// bin-packing 1292 chunks into 2930860-cycle bins: 7 cores suffice (optimal proven: true)
	// with num_threads(7) on the dominant instance:
	// load balance: 0.96 (was 32.4)
	// makespan: 5738088 cycles vs 4903530 on all 48 cores — 41 cores freed for other work
}

// dominantLoop returns the loop instance whose chunks ran longest in total
// (the first such loop on a tie).
func dominantLoop(tr *profile.Trace) *profile.LoopRecord {
	var best *profile.LoopRecord
	var bestTotal uint64
	for _, l := range tr.Loops {
		var total uint64
		for _, ck := range tr.Chunks {
			if ck.Loop == l.ID {
				total += ck.Duration()
			}
		}
		if best == nil || total > bestTotal {
			best, bestTotal = l, total
		}
	}
	return best
}
