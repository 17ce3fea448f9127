package expt

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"graingraph/internal/core"
	"graingraph/internal/export"
	"graingraph/internal/ggp"
	"graingraph/internal/rts"
	"graingraph/internal/runpool"
	"graingraph/internal/timeline"
	"graingraph/internal/workloads"
)

// resetArtifactDirs restores the record/replay globals and caches after a
// test that touched them.
func resetArtifactDirs() {
	SetRecordDir("")
	SetReplayDir("")
	ResetMemo()
	ResetArtifactMemo()
}

// TestRecordReplayRoundTrip is the record/analyze split's headline
// guarantee: the recorded suite, replayed from its artifacts with a cold
// memo, produces byte-identical output, runtime-metrics footers included —
// at both the serial fallback and pooled parallelism — while executing no
// keyed simulation a second time.
func TestRecordReplayRoundTrip(t *testing.T) {
	live := figureSuite(t)
	defer resetArtifactDirs()

	ents, err := os.ReadDir(live.dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("record pass produced no artifacts (%v)", err)
	}
	t.Logf("recorded %d artifacts from %d simulations", len(ents), live.sims)
	if !bytes.Contains(live.out, []byte("runtime metrics:\n")) {
		t.Fatal("live pass printed no runtime-metrics footer; the comparison is vacuous")
	}

	// Every keyed run was recorded during the live pass, so each replay
	// pass serves every keyed request from an artifact and executes no
	// keyed simulation at all (MemoStats counts only keyed executions).
	SetReplayDir(live.dir)
	for _, jobs := range []int{1, 8} {
		replay, sims := regenerate(t, jobs)
		requireSame(t, fmt.Sprintf("live and -j %d replay outputs", jobs), live.out, replay)
		if sims != 0 {
			t.Errorf("-j %d replay executed %d keyed simulations, want 0 (live pass executed %d)", jobs, sims, live.sims)
		}
	}
}

// TestArtifactAnalysisMatchesLive checks the single-artifact path grainview
// uses: a run recorded to a .ggp artifact, read back with
// ggp.DecodeTraceFile and analyzed again, exports byte-identically to the
// live Result, and its Perfetto trace and stats report match the live run's.
func TestArtifactAnalysisMatchesLive(t *testing.T) {
	defer resetArtifactDirs()
	dir := t.TempDir()

	ResetMemo()
	SetRecordDir(dir)
	inst, err := workloads.Get("fib", "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cores: 8, Seed: 1}
	live, err := Run(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	SetRecordDir("")

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("expected 1 recorded artifact, found %d", len(ents))
	}
	dec, err := ggp.DecodeFile(filepath.Join(dir, ents[0].Name()), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	replayed := analyze(nil, dec.Trace, nil, Config{}, nil)

	if got, want := replayed.Trace.Cores, live.Trace.Cores; got != want {
		t.Fatalf("replayed trace has %d cores, live %d", got, want)
	}
	core.Layout(live.Graph)
	core.Layout(replayed.Graph)
	var a, b bytes.Buffer
	if err := export.GraphML(&a, live.Graph, live.Assessment, export.ViewStructure, nil); err != nil {
		t.Fatal(err)
	}
	if err := export.GraphML(&b, replayed.Graph, replayed.Assessment, export.ViewStructure, nil); err != nil {
		t.Fatal(err)
	}
	requireSame(t, "live and replayed GraphML exports", a.Bytes(), b.Bytes())

	// The Perfetto export derives its scheduler instants from the profile,
	// so the live run and its v1 and v2 (with sidecars) artifacts, decoded
	// and analyzed the way grainview does, export the same bytes.
	v2 := filepath.Join(t.TempDir(), "run.v2.ggp")
	if err := WriteUpgraded(v2, live, nil, nil); err != nil {
		t.Fatal(err)
	}
	perfetto := func(res *Result) []byte {
		var buf bytes.Buffer
		run := export.PerfettoRun{Label: "fib", Trace: res.Trace, Critical: res.Graph.CriticalGrains()}
		if err := export.Perfetto(&buf, []export.PerfettoRun{run}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// So is the runtime stats report (grainview -stats).
	stats := func(res *Result) []byte {
		var buf bytes.Buffer
		if err := timeline.StatsFromTrace(res.Trace).Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want, wantStats := perfetto(live), stats(live)
	if !bytes.Contains(want, []byte(`"name":"steal"`)) || !bytes.Contains(want, []byte(`"name":"resume"`)) {
		t.Fatal("live Perfetto export has no steal or resume instants; the comparison is vacuous")
	}
	if timeline.StatsFromTrace(live.Trace).Total().Steals == 0 {
		t.Fatalf("live stats report counts no steals; the comparison is vacuous:\n%s", wantStats)
	}
	for _, path := range []string{filepath.Join(dir, ents[0].Name()), v2} {
		dec, err := ggp.DecodeFile(path, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		res := AnalyzeDecodedOn(nil, dec, nil, Config{}, nil)
		requireSame(t, fmt.Sprintf("Perfetto exports of the live run and the v%d artifact", dec.Version), want, perfetto(res))
		requireSame(t, fmt.Sprintf("stats reports of the live run and the v%d artifact", dec.Version), wantStats, stats(res))
	}
}

// TestArtifactDecodeMemo pins the content-hash memoization of artifact
// decodes: loading identical bytes twice decodes once and shares the
// trace; rewriting the file with different content misses the cache; a
// corrupted file misses the cache and fails its CRC check instead of
// returning a stale decode.
func TestArtifactDecodeMemo(t *testing.T) {
	defer resetArtifactDirs()
	dir := t.TempDir()
	key := runpool.KeyOf("artifact-memo-test")

	tr := rts.Run(rts.Config{Program: "memo-a", Cores: 2}, func(c rts.Ctx) { c.Compute(500) })
	if err := recordArtifact(dir, key, tr); err != nil {
		t.Fatal(err)
	}

	ResetArtifactMemo()
	first, found, err := loadArtifact(dir, key)
	if err != nil || !found {
		t.Fatalf("first load: found=%v err=%v", found, err)
	}
	second, found, err := loadArtifact(dir, key)
	if err != nil || !found {
		t.Fatalf("second load: found=%v err=%v", found, err)
	}
	if first != second {
		t.Error("identical bytes decoded twice; expected the memoized trace to be shared")
	}
	if decodes, hits := ArtifactStats(); decodes != 1 || hits != 1 {
		t.Errorf("after two identical loads: decodes=%d hits=%d, want 1/1", decodes, hits)
	}

	// Different content at the same path is a cache miss that decodes fresh.
	tr2 := rts.Run(rts.Config{Program: "memo-b", Cores: 2}, func(c rts.Ctx) { c.Compute(500) })
	if err := recordArtifact(dir, key, tr2); err != nil {
		t.Fatal(err)
	}
	third, found, err := loadArtifact(dir, key)
	if err != nil || !found {
		t.Fatalf("post-rewrite load: found=%v err=%v", found, err)
	}
	if third == first {
		t.Error("rewritten artifact returned the stale decode")
	}
	if third.Program != "memo-b" {
		t.Errorf("rewritten artifact decoded program %q, want memo-b", third.Program)
	}
	if decodes, hits := ArtifactStats(); decodes != 2 || hits != 1 {
		t.Errorf("after rewrite: decodes=%d hits=%d, want 2/1", decodes, hits)
	}

	// A mutated payload byte is also a miss — and the fresh decode fails
	// the CRC check rather than serving anything.
	path := artifactPath(dir, key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadArtifact(dir, key); err == nil {
		t.Error("corrupted artifact loaded without error")
	}
	if decodes, hits := ArtifactStats(); decodes != 3 || hits != 1 {
		t.Errorf("after corruption: decodes=%d hits=%d, want 3/1", decodes, hits)
	}

	// A missing artifact is not an error: the engine falls back to live
	// simulation.
	if _, found, err := loadArtifact(dir, runpool.KeyOf("absent")); found || err != nil {
		t.Errorf("missing artifact: found=%v err=%v, want false/nil", found, err)
	}
}
