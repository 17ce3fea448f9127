// Quickstart: profile a task-parallel Fibonacci on the simulated 48-core
// machine, build its grain graph, derive the paper's metrics, and export a
// yEd-viewable GraphML file with problem highlighting.
package main

import (
	"fmt"
	"log"
	"os"

	"graingraph/internal/core"
	"graingraph/internal/export"
	"graingraph/internal/highlight"
	"graingraph/internal/metrics"
	"graingraph/internal/profile"
	"graingraph/internal/rts"
)

func main() {
	// 1. Write an OpenMP-style task program against the rts API.
	var fib func(c rts.Ctx, n int) uint64
	fib = func(c rts.Ctx, n int) uint64 {
		if n < 2 {
			c.Compute(10)
			return uint64(n)
		}
		if n < 12 { // cutoff: run small subtrees serially
			c.Compute(uint64(1) << uint(n-8) * 100)
			a, b := serialFib(n-1), serialFib(n-2)
			return a + b
		}
		var a, b uint64
		c.Spawn(profile.Loc("main.go", 24, "fib"), func(c rts.Ctx) { a = fib(c, n-1) })
		c.Spawn(profile.Loc("main.go", 25, "fib"), func(c rts.Ctx) { b = fib(c, n-2) })
		c.TaskWait()
		return a + b
	}

	var result uint64
	program := func(c rts.Ctx) { result = fib(c, 24) }

	// 2. Run it on the simulated machine (and once on 1 core as the work-
	//    deviation baseline).
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

	// 4. Export for yEd: problems coloured red-to-yellow, rest dimmed.
	core.Layout(graph)
	f, err := os.Create("fib-grains.graphml")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := export.GraphML(f, graph, assessment, export.ViewParallelBenefit); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote fib-grains.graphml (open in yEd; parallel-benefit view)")
}

func serialFib(n int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	return serialFib(n-1) + serialFib(n-2)
}
