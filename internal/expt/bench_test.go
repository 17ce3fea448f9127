package expt

import (
	"runtime"
	"testing"

	"graingraph/internal/rts"
	"graingraph/internal/workloads"
)

// figure1Bench regenerates Figure 1 at the given parallelism with a cold
// memo cache, so every simulation executes for real and the serial/parallel
// pair measures the pool itself.
func figure1Bench(b *testing.B, jobs int) {
	setJobs(b, jobs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ResetMemo()
		if _, err := Figure1(nil, 48); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1Serial is the -j 1 half of the speedup pair: all 35 runs
// execute sequentially on the calling goroutine.
func BenchmarkFigure1Serial(b *testing.B) { figure1Bench(b, 1) }

// BenchmarkFigure1Parallel is the -j GOMAXPROCS half: the same 35 runs fan
// out across the worker pool. On an N-core machine the wall-time ratio to
// BenchmarkFigure1Serial approaches min(N, 35); on one core it is ~1.
func BenchmarkFigure1Parallel(b *testing.B) {
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	figure1Bench(b, 0)
}

// BenchmarkMemoizedFigure1 measures the warm-cache path: after the first
// regeneration, every run request is a memo hit and regeneration cost is
// pure analysis.
func BenchmarkMemoizedFigure1(b *testing.B) {
	setJobs(b, 1)
	ResetMemo()
	if _, err := Figure1(nil, 48); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Figure1(nil, 48); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeLoopHeavy analyzes loop-dominated runs (blackscholes,
// freqmine: one task, every other grain a chunk) from a trace nothing has
// indexed yet, the state a decode leaves it in — so each iteration pays for
// the chunk grain IDs, which are formatted once per chunk, in the trace's id
// table, however many passes name a chunk. Record copying is outside the
// timer.
func BenchmarkAnalyzeLoopHeavy(b *testing.B) {
	for _, name := range []string{"blackscholes", "freqmine"} {
		b.Run(name, func(b *testing.B) {
			inst, err := workloads.Get(name, workloads.VariantDefault)
			if err != nil {
				b.Fatal(err)
			}
			tr := rts.Run(rts.Config{Program: inst.Name(), Cores: 8, Seed: 1}, inst.Program())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh := stringRefsOnly(tr)
				b.StartTimer()
				analyze(nil, fresh, nil, Config{}, nil)
			}
			b.ReportMetric(float64(len(tr.Chunks)), "chunks")
		})
	}
}
