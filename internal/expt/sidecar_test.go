package expt

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"graingraph/internal/core"
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
	if err := ggp.WriteFileV2(v2Path, live.Trace, core.Build(live.Trace), nil); err != nil {
		t.Fatal(err)
	}
	if err := UpgradeArtifact(v1Path, v2ScPath, nil); err != nil {
		t.Fatal(err)
	}

	var want []byte
	for _, jobs := range []int{1, 8} {
		pool := runpool.New(jobs)
		var outs [][]byte
		for _, p := range []string{v1Path, v2Path, v2ScPath} {
			dec, err := ggp.DecodeFile(p, pool, nil)
			if err != nil {
				t.Fatalf("jobs=%d %s: %v", jobs, p, err)
			}
			if p == v2ScPath && !dec.HasSidecars() {
				t.Fatalf("upgraded artifact %s decoded without sidecars", p)
			}
			res := AnalyzeDecodedOn(pool, dec, nil, Config{}, nil)
			outs = append(outs, analysisOutputs(t, res, pool))
		}
		for i, out := range outs {
			if want == nil {
				want = out
				continue
			}
			if !bytes.Equal(out, want) {
				d := diffLine(want, out)
				t.Fatalf("jobs=%d artifact #%d: analysis output differs (first differing line %d):\nwant: %q\ngot:  %q",
					jobs, i, d, lineAt(want, d), lineAt(out, d))
			}
		}
	}
}

// TestRecordV2RoundTrip pins the -ggp-v2 recording path: with v2
// recording enabled, the artifact on disk is columnar, replays through
// the same engine path, and analyzes byte-identically to the v1
// recording of the same run.
func TestRecordV2RoundTrip(t *testing.T) {
	defer func() { SetRecordV2(false); resetArtifactDirs() }()
	inst, err := workloads.Get("fib", "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cores: 4, Seed: 9}

	record := func(v2 bool, dir string) []byte {
		t.Helper()
		ResetMemo()
		ResetArtifactMemo()
		SetRecordV2(v2)
		SetRecordDir(dir)
		defer SetRecordDir("")
		if _, err := Run(inst, cfg); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil || len(ents) != 1 {
			t.Fatalf("expected 1 artifact in %s: %v (%d entries)", dir, err, len(ents))
		}
		raw, err := os.ReadFile(filepath.Join(dir, ents[0].Name()))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	rawV1 := record(false, t.TempDir())
	rawV2 := record(true, t.TempDir())
	if rawV1[len(ggp.Magic)] != 1 || rawV2[len(ggp.Magic)] != 2 {
		t.Fatalf("recorded versions: v1 byte %d, v2 byte %d", rawV1[len(ggp.Magic)], rawV2[len(ggp.Magic)])
	}

	d1, err := ggp.Decode(rawV1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ggp.Decode(rawV2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := analysisOutputs(t, AnalyzeDecodedOn(nil, d1, nil, Config{}, nil), nil)
	b := analysisOutputs(t, AnalyzeDecodedOn(nil, d2, nil, Config{}, nil), nil)
	if !bytes.Equal(a, b) {
		d := diffLine(a, b)
		t.Fatalf("v1/v2 recorded analysis differs (line %d):\nv1: %q\nv2: %q", d, lineAt(a, d), lineAt(b, d))
	}
}
