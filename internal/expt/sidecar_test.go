package expt

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"graingraph/internal/export"
	"graingraph/internal/ggp"
	"graingraph/internal/lod"
	"graingraph/internal/query"
	"graingraph/internal/runpool"
	"graingraph/internal/workloads"
)

// analysisOutputs renders every analysis product the CLIs expose —
// summary, highlight report, what-if ranking, windowed level-of-detail
// export, and a query plan over both sources — into one byte stream.
func analysisOutputs(t *testing.T, res *Result, pool *runpool.Runner) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSummary(&buf, res); err != nil {
		t.Fatal(err)
	}
	if err := WriteHighlight(&buf, res); err != nil {
		t.Fatal(err)
	}
	ps, err := WhatIfRank(res, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteWhatIfTable(&buf, res, ps); err != nil {
		t.Fatal(err)
	}
	wg, _, err := res.Lod().Window(lod.WindowOptions{Depth: 2, Top: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := export.DOTWithWhatIfPool(&buf, wg, res.Assessment, export.ViewStructure, nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"from grains | filter exec > 0 | sort exec desc, id asc | topk 10 by exec",
		"from tasks | sort subwork desc, id asc | topk 5 by subwork",
	} {
		plan, err := query.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := WritePlanSpan(&buf, res, plan, pool, nil); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestV2AnalysisByteIdentical is the tentpole's acceptance gate: the same
// run analyzed from the v1 event-stream artifact, from a bare columnar v2
// artifact, and from a v2 artifact with full derived sidecars must render
// every analysis product byte-identically, at serial and pooled
// parallelism alike.
func TestV2AnalysisByteIdentical(t *testing.T) {
	inst, err := workloads.Get("fib", "")
	if err != nil {
		t.Fatal(err)
	}
	live, err := Run(inst, Config{Cores: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	v1Path := filepath.Join(dir, "run.ggp")
	v2Path := filepath.Join(dir, "run.v2.ggp")
	v2ScPath := filepath.Join(dir, "run.v2sc.ggp")
	if err := ggp.WriteFile(v1Path, live.Trace); err != nil {
		t.Fatal(err)
	}
	if err := ggp.WriteFileV2(v2Path, live.Trace, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := UpgradeArtifact(v1Path, v2ScPath, nil); err != nil {
		t.Fatal(err)
	}

	var want []byte
	for _, jobs := range []int{1, 8} {
		pool := runpool.New(jobs)
		for i, p := range []string{v1Path, v2Path, v2ScPath} {
			dec, err := ggp.DecodeFile(p, pool, nil)
			if err != nil {
				t.Fatalf("jobs=%d %s: %v", jobs, p, err)
			}
			if p == v2ScPath && !dec.HasSidecars() {
				t.Fatalf("upgraded artifact %s decoded without sidecars", p)
			}
			out := analysisOutputs(t, AnalyzeDecodedOn(pool, dec, nil, Config{}, nil), pool)
			if want == nil {
				want = out
			}
			requireSame(t, fmt.Sprintf("analysis outputs of artifact #0 at -j 1 and artifact #%d at -j %d", i, jobs), want, out)
		}
	}
}

// TestRecordV2RoundTrip pins replay from columnar v2 artifacts: a run
// recorded as v1, rewritten as v2 under the same content key, replays
// through the engine without simulating and analyzes byte-identically to
// the live run.
func TestRecordV2RoundTrip(t *testing.T) {
	defer resetArtifactDirs()
	inst, err := workloads.Get("fib", "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cores: 4, Seed: 9}

	v1Dir, v2Dir := t.TempDir(), t.TempDir()
	ResetMemo()
	SetRecordDir(v1Dir)
	live, err := Run(inst, cfg)
	SetRecordDir("")
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(v1Dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("expected 1 artifact in %s: %v (%d entries)", v1Dir, err, len(ents))
	}
	dec, err := ggp.DecodeFile(filepath.Join(v1Dir, ents[0].Name()), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	v2Path := filepath.Join(v2Dir, ents[0].Name())
	if err := ggp.WriteFileV2(v2Path, dec.Trace, nil, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	if raw[len(ggp.Magic)] != 2 {
		t.Fatalf("rewritten artifact has version byte %d, want 2", raw[len(ggp.Magic)])
	}

	ResetMemo()
	ResetArtifactMemo()
	SetReplayDir(v2Dir)
	replayed, err := Run(inst, cfg)
	SetReplayDir("")
	if err != nil {
		t.Fatal(err)
	}
	if sims, _ := MemoStats(); sims != 0 {
		t.Errorf("replay from v2 simulated %d runs, want 0", sims)
	}
	a := analysisOutputs(t, live, nil)
	b := analysisOutputs(t, replayed, nil)
	requireSame(t, "live and v2-replayed analyses", a, b)
}
