package expt

import (
	"bytes"
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
// guarantee: a full figure pass recorded to grain-profile artifacts, then
// replayed from those artifacts with a cold memo, produces byte-identical
// output, runtime-metrics footers included — at both the serial fallback
// and pooled parallelism — while executing no keyed simulation a second
// time.
func TestRecordReplayRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every figure three times; skipped in -short")
	}
	prev := parallelism()
	defer func() { SetParallelism(prev); resetArtifactDirs() }()

	dir := t.TempDir()

	SetRecordDir(dir)
	live, liveSims := regenerate(t, 8)
	SetRecordDir("")

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("record pass produced no artifacts")
	}
	t.Logf("recorded %d artifacts from %d simulations", len(ents), liveSims)
	if !bytes.Contains(live, []byte("runtime metrics:\n")) {
		t.Fatal("live pass printed no runtime-metrics footer; the comparison is vacuous")
	}

	SetReplayDir(dir)
	replaySerial, serialSims := regenerate(t, 1)
	replayParallel, parallelSims := regenerate(t, 8)
	SetReplayDir("")

	if !bytes.Equal(live, replaySerial) {
		d := diffLine(live, replaySerial)
		t.Fatalf("live and -j 1 replay outputs differ (first differing line %d):\nlive:   %q\nreplay: %q",
			d, lineAt(live, d), lineAt(replaySerial, d))
	}
	if !bytes.Equal(live, replayParallel) {
		d := diffLine(live, replayParallel)
		t.Fatalf("live and -j 8 replay outputs differ (first differing line %d):\nlive:   %q\nreplay: %q",
			d, lineAt(live, d), lineAt(replayParallel, d))
	}
	// Every keyed run was recorded during the live pass, so both replay
	// passes serve every keyed request from an artifact and execute no
	// keyed simulation at all (MemoStats counts only keyed executions).
	if serialSims != 0 || parallelSims != 0 {
		t.Errorf("replay executed keyed simulations: %d at -j 1, %d at -j 8; want 0 (live pass executed %d)",
			serialSims, parallelSims, liveSims)
	}
}

// TestArtifactAnalysisMatchesLive checks the single-artifact path grainview
// uses: a run recorded to a .ggp artifact, read back with ggp.ReadFile and
// analyzed again, exports byte-identically to the live Result,
// and its Perfetto trace and stats report match the live run's.
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
	tr, err := ggp.ReadFile(filepath.Join(dir, ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	replayed := analyze(nil, tr, nil, nil, Config{}, nil)

	if got, want := replayed.Trace.Cores, live.Trace.Cores; got != want {
		t.Fatalf("replayed trace has %d cores, live %d", got, want)
	}
	core.Layout(live.Graph)
	core.Layout(replayed.Graph)
	var a, b bytes.Buffer
	if err := export.GraphML(&a, live.Graph, live.Assessment, export.ViewStructure); err != nil {
		t.Fatal(err)
	}
	if err := export.GraphML(&b, replayed.Graph, replayed.Assessment, export.ViewStructure); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		d := diffLine(a.Bytes(), b.Bytes())
		t.Fatalf("GraphML exports differ (first differing line %d):\nlive:   %q\nreplay: %q",
			d, lineAt(a.Bytes(), d), lineAt(b.Bytes(), d))
	}

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
		if got := perfetto(res); !bytes.Equal(want, got) {
			d := diffLine(want, got)
			t.Fatalf("Perfetto export of v%d artifact differs from the live run (first differing line %d):\nlive:     %q\nartifact: %q",
				dec.Version, d, lineAt(want, d), lineAt(got, d))
		}
		if got := stats(res); !bytes.Equal(wantStats, got) {
			t.Fatalf("stats report of v%d artifact differs from the live run:\nlive:\n%s\nartifact:\n%s",
				dec.Version, wantStats, got)
		}
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
