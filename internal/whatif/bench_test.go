package whatif

import (
	"testing"

	"graingraph/internal/core"
	"graingraph/internal/highlight"
	"graingraph/internal/metrics"
	"graingraph/internal/rts"
	"graingraph/internal/runpool"
	"graingraph/internal/workloads"
)

// BenchmarkRankGiant measures one ranking pass — candidate generation and
// every evaluation, on a fresh engine, at -j 2 — over the G6 giant (the
// giant tree at FullDepth 6 on 48 cores). Simulation, analysis and engine
// construction stay outside the timed region.
func BenchmarkRankGiant(b *testing.B) {
	tr := rts.Run(rts.Config{Program: "giant", Cores: 48, Seed: 1},
		workloads.NewGiant(workloads.SmokeGiantParams()).Program())
	g := core.Build(tr)
	rep := metrics.Analyze(tr, g, nil, metrics.Options{})
	a := highlight.EvaluateWith(rep, highlight.Defaults(tr.Cores, 4), nil)
	pool := runpool.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := New(g, rep)
		b.StartTimer()
		if _, err := e.Rank(a, pool, RankOptions{TopN: 10}); err != nil {
			b.Fatal(err)
		}
	}
}
