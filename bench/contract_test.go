package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json is what the driver reads and the Go tables are what the
// program prints: they must name the same workloads and metrics.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %v, the program's default is %v", doc.RunSeconds, defaultSeconds)
	}
	names := workloadNames()
	if len(doc.Workloads) != len(names) {
		t.Fatalf("%d workloads listed, the program has %d", len(doc.Workloads), len(names))
	}
	for i, w := range doc.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d is %q, the program's is %q", i, w.Name, names[i])
		}
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics listed, the program prints %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].Name || m.Unit != want[i].Unit {
				t.Errorf("%s metric %d is %s [%s], the program prints %s [%s]", kind, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
			}
			if bounded && m.Bound != want[i].Bound {
				t.Errorf("%s: bound %v listed, selfcheck uses %v", m.Name, m.Bound, want[i].Bound)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndMetrics, true)
	check("per_layer", doc.PerLayer, perLayerMetrics, false)
}
