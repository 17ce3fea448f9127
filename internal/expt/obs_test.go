package expt

import (
	"bytes"
	"encoding/json"
	"testing"

	"graingraph/internal/export"
	"graingraph/internal/obs"
	"graingraph/internal/profile"
	"graingraph/internal/rts"
	"graingraph/internal/workloads"
)

// selfProfileJSON analyzes tr at parallelism j with self-observability on
// and returns the -selfprofile document bytes.
func selfProfileJSON(t *testing.T, tr *profile.Trace, j int) []byte {
	t.Helper()
	SetParallelism(j)
	p := obs.New()
	p.TrackMem = false // alloc deltas are scheduling-dependent; timings are zeroed anyway
	EnableSelfProfile(p)
	defer EnableSelfProfile(nil)

	res := analyze(nil, tr, nil, nil, Config{}, nil)
	if res == nil || res.Graph.NumNodes() == 0 {
		t.Fatal("analysis produced no graph")
	}
	prof, err := SelfProfile()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := export.SelfProfile(&buf, prof); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// normalizeSelfProfile strips everything timing- and scheduling-dependent
// from a self-profile document: event timestamps/durations and allocation
// args are zeroed, and the runpool section — whose worker breakdown depends
// on -j by construction — is dropped. What remains is the span structure:
// names, nesting (via track assignment), event order.
func normalizeSelfProfile(t *testing.T, raw []byte) []byte {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("self-profile is not valid JSON: %v", err)
	}
	if od, ok := doc["otherData"].(map[string]any); ok {
		delete(od, "runpool")
	}
	events, _ := doc["traceEvents"].([]any)
	for _, e := range events {
		ev, ok := e.(map[string]any)
		if !ok {
			continue
		}
		delete(ev, "ts")
		delete(ev, "dur")
		delete(ev, "args")
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSelfProfileDeterministicAcrossParallelism pins the observability
// determinism contract: the same artifact analyzed at -j 1 and -j 8
// produces a -selfprofile whose structure — every span name, nesting and
// canonical order — is byte-identical once timings (and the inherently
// -j-dependent worker telemetry) are zeroed out.
func TestSelfProfileDeterministicAcrossParallelism(t *testing.T) {
	prev := parallelism()
	defer SetParallelism(prev)

	inst, err := workloads.Get("fib", "")
	if err != nil {
		t.Fatal(err)
	}
	tr := rts.Run(rts.Config{Program: inst.Name(), Cores: 8, Seed: 1}, inst.Program())

	serial := selfProfileJSON(t, tr, 1)
	parallel := selfProfileJSON(t, tr, 8)

	ns, np := normalizeSelfProfile(t, serial), normalizeSelfProfile(t, parallel)
	if !bytes.Equal(ns, np) {
		t.Fatalf("self-profile structure differs between -j 1 and -j 8:\n-j1: %s\n-j8: %s", ns, np)
	}

	// The structure must actually cover the pipeline: analyze root plus
	// the per-kernel children.
	for _, want := range []string{
		`"analyze:fib`, `"build"`, `"metric:rows"`, `"metric:critical"`,
		`"levels"`, `"metric:parallelism"`, `"metric:scatter"`,
		`"metric:loadbalance"`, `"highlight"`,
	} {
		if !bytes.Contains(ns, []byte(want)) {
			t.Errorf("self-profile missing span %s", want)
		}
	}
}

// TestSelfProfileMemoCounters pins that the registry reports the engine's
// memoization caches: a run executed twice hits the simulation memo, and
// the counters land in the pool snapshot.
func TestSelfProfileMemoCounters(t *testing.T) {
	prev := parallelism()
	defer func() { SetParallelism(prev); EnableSelfProfile(nil) }()

	ResetMemo()
	SetParallelism(1)
	EnableSelfProfile(obs.New())

	inst, err := workloads.Get("fib", "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cores: 8, Seed: 1}
	if _, err := Run(inst, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(inst, cfg); err != nil {
		t.Fatal(err)
	}

	prof, err := SelfProfile()
	if err != nil {
		t.Fatal(err)
	}
	if prof == nil || prof.Pool == nil {
		t.Fatal("self-profile has no pool telemetry")
	}
	var sim *obs.MemoCounters
	for i := range prof.Pool.Memos {
		if prof.Pool.Memos[i].Name == "simulate" {
			sim = &prof.Pool.Memos[i]
		}
	}
	if sim == nil {
		t.Fatalf("no simulate memo counters in %+v", prof.Pool.Memos)
	}
	if sim.Hits < 1 || sim.Misses < 1 {
		t.Errorf("simulate memo counters = %+v, want at least one hit and one miss", *sim)
	}
}
