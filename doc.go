// Package graingraph is a from-scratch Go reproduction of "Grain Graphs:
// OpenMP Performance Analysis Made Easy" (Muddukrishna, Jonsson, Podobas,
// Brorsson — PPoPP 2016): a grain-level performance-analysis method for
// task- and loop-parallel programs, together with every substrate the
// paper's evaluation depends on, rebuilt as a simulated 48-core NUMA
// machine, an OpenMP-like tasking runtime and the paper's benchmark
// programs (bugs included).
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-versus-measured record of every table and
// figure. The root-level benchmarks (bench_test.go) regenerate each one:
//
//	go test -bench=. -benchtime=1x .
//
// The runnable examples (example_test.go) walk the method end to end:
// Example_quickstart profiles a task-parallel Fibonacci, Example_kdtreeBug
// finds 376.kdtree's missing depth increment, and Example_freqminePack
// bin-packs Freqmine's imbalanced loop. `go test .` runs them and
// checks their output, and TestEveryInternalFunctionLinked (reach_test.go)
// checks that every function under internal/ is linked by a shipped binary
// or allow-listed with its reason.
package graingraph
