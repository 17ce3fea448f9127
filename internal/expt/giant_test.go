package expt

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"graingraph/internal/core"
	"graingraph/internal/export"
	"graingraph/internal/ggp"
	"graingraph/internal/lod"
	"graingraph/internal/profile"
	"graingraph/internal/whatif"
	"graingraph/internal/workloads"
)

// giantRun simulates a variant of the giant workload at 48 cores once per
// test process and shares the immutable trace between its callers.
func giantRun(v workloads.Variant) func() (*profile.Trace, error) {
	return sync.OnceValues(func() (*profile.Trace, error) {
		inst, err := workloads.Get("giant", v)
		if err != nil {
			return nil, err
		}
		res, err := Run(inst, Config{Cores: 48, Seed: 1})
		if err != nil {
			return nil, err
		}
		return res.Trace, nil
	})
}

// smokeGiantTrace is the reduced-size giant (≈16k grains) the tests share;
// giantTrace is the full ~1M-grain giant, for the analysis benchmarks only.
var smokeGiantTrace, giantTrace = giantRun(workloads.VariantSmoke), giantRun(workloads.VariantDefault)

// TestGiantSmoke is the CI smoke check for the stress workload: the reduced
// giant simulates, verifies, and analyzes end to end on the pool, and its
// size lands in the expected band (full 4-ary trunk to depth 6 = 5461 forced
// nodes plus subcritical tails — far below the ~1M of the default variant,
// far above trivial).
func TestGiantSmoke(t *testing.T) {
	tr, err := smokeGiantTrace()
	if err != nil {
		t.Fatal(err)
	}
	setJobs(t, 8)

	res := analyze(nil, tr, nil, Config{}, nil)
	grains := 0
	for n := core.NodeID(0); n < core.NodeID(res.Graph.NumNodes()); n++ {
		if k := res.Graph.Kind(n); k == core.NodeFragment || k == core.NodeChunk {
			grains++
		}
	}
	if grains < 5_000 || grains > 100_000 {
		t.Errorf("smoke giant produced %d grain nodes, want 5k..100k", grains)
	}
	if res.Report == nil || res.Assessment == nil {
		t.Fatal("analysis did not produce a report and assessment")
	}
}

// artifactAnalysis renders the complete grainview artifact-serving output —
// what-if table, DOT and JSON with attached projections — at the given
// parallelism, from a saved .ggp artifact.
func artifactAnalysis(t *testing.T, path string, jobs int) []byte {
	t.Helper()
	setJobs(t, jobs)

	dec, err := ggp.DecodeFile(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := analyze(nil, dec.Trace, nil, Config{}, nil)
	eng := whatif.New(res.Graph, res.Report)
	projections, err := eng.Rank(res.Assessment, Pool(), whatif.RankOptions{TopN: 10})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := whatif.WriteTable(&buf, "what-if", projections); err != nil {
		t.Fatal(err)
	}
	if err := export.DOTWithWhatIfPool(&buf, res.Graph, res.Assessment, export.ViewParallelBenefit, projections, Pool()); err != nil {
		t.Fatal(err)
	}
	if err := export.JSONWithWhatIfPool(&buf, res.Graph, res.Assessment, projections, Pool()); err != nil {
		t.Fatal(err)
	}

	// Windowed level-of-detail view of the same graph: the index build, the
	// window query and its DOT/JSON exports all feed the byte-identity
	// check, so LoD output is pinned deterministic across -j too.
	ix := lod.Build(res.Graph, res.Assessment)
	wg, wstats, err := ix.Window(lod.WindowOptions{Depth: 2, Top: 4})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "window: %+v\n", wstats)
	if err := export.DOTWithWhatIfPool(&buf, wg, res.Assessment, export.ViewParallelBenefit, projections, Pool()); err != nil {
		t.Fatal(err)
	}
	if err := export.JSONWithWhatIfPool(&buf, wg, res.Assessment, projections, Pool()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestArtifactAnalysisDeterministicAcrossParallelism is the tentpole's
// end-to-end guarantee on the artifact path: record a run to a .ggp file,
// then analyze it at -j 1 and -j 8 — graph build, metric kernels,
// level-synchronous critical path, highlighting, what-if ranking and both
// sharded exports must produce byte-identical output.
func TestArtifactAnalysisDeterministicAcrossParallelism(t *testing.T) {
	tr, err := smokeGiantTrace()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "giant-smoke.ggp")
	if err := ggp.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}

	serial := artifactAnalysis(t, path, 1)
	parallel := artifactAnalysis(t, path, 8)
	requireSame(t, "-j 1 and -j 8 artifact analyses", serial, parallel)
}

// analyzeGiantOnce runs the full artifact-serving analysis path — graph
// build, metric kernels, critical path, highlighting, what-if ranking, DOT
// and JSON export — over the giant trace at the current parallelism.
func analyzeGiantOnce(b *testing.B, tr *profile.Trace) {
	res := analyze(nil, tr, nil, Config{}, nil)
	eng := whatif.New(res.Graph, res.Report)
	projections, err := eng.Rank(res.Assessment, Pool(), whatif.RankOptions{TopN: 10})
	if err != nil {
		b.Fatal(err)
	}
	if err := export.DOTWithWhatIfPool(io.Discard, res.Graph, res.Assessment, export.ViewParallelBenefit, projections, Pool()); err != nil {
		b.Fatal(err)
	}
	if err := export.JSONWithWhatIfPool(io.Discard, res.Graph, res.Assessment, projections, Pool()); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRankGiant isolates the what-if ranking phase — candidate
// generation plus every hypothesis evaluation — over the ~1M-grain giant
// graph. This is the phase the sparse delta DP was built for; analysis and
// engine construction run once outside the timed region.
func BenchmarkRankGiant(b *testing.B) {
	tr, err := giantTrace()
	if err != nil {
		b.Fatal(err)
	}
	res := analyze(nil, tr, nil, Config{}, nil)
	eng := whatif.New(res.Graph, res.Report)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Rank(res.Assessment, Pool(), whatif.RankOptions{TopN: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalSparse measures a single minimal-footprint hypothesis
// evaluation on the giant graph: scaling one of the deepest task grains
// edits a handful of weights, so the sparse path's cost is the dirty cone,
// not the 3.6M-node graph.
func BenchmarkEvalSparse(b *testing.B) {
	tr, err := giantTrace()
	if err != nil {
		b.Fatal(err)
	}
	res := analyze(nil, tr, nil, Config{}, nil)
	eng := whatif.New(res.Graph, res.Report)
	var deep profile.GrainID
	depth := -1
	for row := range res.Report.Num {
		id := res.Report.ID(row)
		if d := strings.Count(string(id), "."); d > depth && strings.HasPrefix(string(id), "R") {
			deep, depth = id, d
		}
	}
	h := whatif.ScaleGrain{Grain: deep, Factor: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Eval(h)
	}
	b.StopTimer()
	if st := eng.Stats(); st.Sparse == 0 {
		b.Fatalf("no sparse evaluations recorded (stats %+v) — the benchmark is mis-measuring the fallback path", st)
	}
}

// BenchmarkWindowGiant measures one windowed level-of-detail query over the
// giant graph after the one-time index build — the <100ms interactive
// navigation budget from the paper's workflow.
func BenchmarkWindowGiant(b *testing.B) {
	tr, err := giantTrace()
	if err != nil {
		b.Fatal(err)
	}
	res := analyze(nil, tr, nil, Config{}, nil)
	ix := lod.Build(res.Graph, res.Assessment)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Window(lod.WindowOptions{Depth: 2, Top: 6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeGiant measures the end-to-end analysis path over the
// ~1M-grain giant workload, serial versus pooled. The simulation itself runs
// once outside the timed region; the numbers are recorded in EXPERIMENTS.md.
func BenchmarkAnalyzeGiant(b *testing.B) {
	tr, err := giantTrace()
	if err != nil {
		b.Fatal(err)
	}
	prev := parallelism()
	defer SetParallelism(prev)

	for _, bench := range []struct {
		name string
		jobs int
	}{
		{"Serial", 1},
		{"Parallel8", 8},
	} {
		b.Run(bench.name, func(b *testing.B) {
			SetParallelism(bench.jobs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				analyzeGiantOnce(b, tr)
			}
		})
	}
}
