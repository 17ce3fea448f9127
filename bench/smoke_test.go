package main

import (
	"os"
	"testing"
)

// The benchmark starts itself as a child (set-up, host probes, one process
// per workload) through os.Executable(), which under `go test` is the test
// binary: with BENCH_AS_CLI set, the test binary behaves as the command.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_AS_CLI") == "1" {
		os.Exit(realMain(os.Args[1:]))
	}
	os.Setenv("BENCH_AS_CLI", "1")
	os.Exit(m.Run())
}

// `bench run all -smoke` drives every workload end to end on tiny inputs
// (giant FullDepth 5, one figure, 1 s phases), so API drift in any layer
// the benchmark calls breaks tier-1 at once.
func TestRunAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts grainserved")
	}
	if code := realMain([]string{"run", "all", "-smoke"}); code != 0 {
		t.Fatalf("bench run all -smoke exited %d", code)
	}
}

// The traced run makes every layer probe; one smoke pass keeps them building
// and reporting every metric BENCHMARK.json lists.
func TestTraceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts grainserved")
	}
	o := options{workload: "artifact-write", trace: true, smoke: true}
	o.applySmoke()
	defer runCleanups()
	res, err := execute(findWorkload(o.workload), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("%d ops failed: %q", res.Failed, res.Problems)
	}
	for _, d := range perLayerMetrics {
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("traced run did not report %s", d.Name)
		}
	}
	if len(res.Metrics) != len(perLayerMetrics) {
		t.Errorf("traced run reports %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(perLayerMetrics))
	}
	if cov := res.Metrics["bench.span_coverage"].Value; cov < 0.95 {
		t.Errorf("span coverage %.3f, want >= 0.95", cov)
	}
}
