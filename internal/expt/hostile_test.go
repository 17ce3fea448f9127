package expt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"graingraph/internal/ggp"
	"graingraph/internal/profile"
	"graingraph/internal/rts"
	"graingraph/internal/runpool"
)

// hostileRun is a real simulated run, copied so that nothing about it is
// indexed yet and its references can be bent.
func hostileRun() *profile.Trace {
	return stringRefsOnly(rts.Run(rts.Config{Program: "hostile", Cores: 4, Seed: 3}, randomTreeWithLoops(3)))
}

// danglingRun has every kind of reference pointing at a grain the trace
// does not record: a task whose Parent is missing but whose path still
// names recorded ancestors, two orphans under a parent that exists nowhere,
// a fork of a missing child and a join that waited for one.
func danglingRun() *profile.Trace {
	tr := hostileRun()
	tr.Tasks[5].Parent = "R.77"
	end := tr.End
	for i, core := range []int{0, 3} {
		tr.Tasks = append(tr.Tasks, &profile.TaskRecord{
			ID: profile.ChildID("R.77", i), Parent: "R.77", Depth: 2, Loc: profile.Loc("rand.go", 7, "orphan"),
			CreateCost: 40, StartTime: end - 900, EndTime: end - 100,
			Fragments: []profile.Fragment{{Start: end - 900, End: end - 100, Core: core}},
		})
	}
	root := tr.Tasks[0]
	for i := range root.Boundaries {
		switch b := &root.Boundaries[i]; b.Kind {
		case profile.BoundaryFork:
			b.Child = "R.78"
		case profile.BoundaryJoin:
			b.Joined = append([]profile.GrainID{"R.79"}, b.Joined...)
			return tr
		}
	}
	return tr
}

// danglingDigest is the SHA-256 prefix of analysisOutputs over danglingRun
// as analyses keyed by ID string render it (measured at commit 3c752ae,
// where every per-grain table was a map[GrainID]): a reference that resolves
// to no number must be skipped exactly where a failed map lookup was.
const danglingDigest = "f4bedc7c5e5b0e75"

// TestHostileReferencesAnalyse: an artifact with dangling references
// decodes from both formats and renders every analysis product — summary,
// highlight, what-if ranking, window, queries — byte-identically at -j 1
// and -j 8 and from v1 and v2, the bytes danglingDigest pins. Parent chains that loop are rejected by the reader (Validate:
// a task is recorded after its parent); handed to the analyses in memory,
// where nothing validated them, they still terminate, because the owner
// table cuts every link that would close a cycle.
func TestHostileReferencesAnalyse(t *testing.T) {
	tr := danglingRun()
	var v1 bytes.Buffer
	if err := ggp.WriteTrace(&v1, tr); err != nil {
		t.Fatal(err)
	}
	v2, err := ggp.EncodeV2(tr, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, jobs := range []int{1, 8} {
		pool := runpool.New(jobs)
		for name, data := range map[string][]byte{"v1": v1.Bytes(), "v2": v2} {
			dec, err := ggp.Decode(data, pool, nil)
			if err != nil {
				t.Fatalf("-j %d %s: dangling references rejected: %v", jobs, name, err)
			}
			out := analysisOutputs(t, AnalyzeDecodedOn(pool, dec, nil, Config{}, nil), pool)
			if want == nil {
				want = out
			} else if !bytes.Equal(out, want) {
				t.Errorf("-j %d %s: analysis of dangling references differs from the first rendering", jobs, name)
			}
		}
	}
	sum := sha256.Sum256(want)
	if got := hex.EncodeToString(sum[:8]); got != danglingDigest {
		t.Errorf("dangling references render as %s, want %s", got, danglingDigest)
	}

	selfParent := hostileRun()
	selfParent.Tasks[5].Parent = selfParent.Tasks[5].ID
	cycle := hostileRun()
	cycle.Tasks[5].Parent, cycle.Tasks[6].Parent = cycle.Tasks[6].ID, cycle.Tasks[5].ID
	// A chain that loops through one resolved and one path-derived link: an
	// early task's Parent dangles, so its parent is the one its path names
	// — which is recorded later and claims the early task as its own
	// parent. Each record follows its resolved parent, so Validate passes.
	mixed := hostileRun()
	leaf := 1
	for len(mixed.Tasks[leaf].Boundaries) > 0 {
		leaf++ // a task nothing names as its parent
	}
	early, late := mixed.Tasks[leaf], &profile.TaskRecord{
		ID: mixed.Tasks[leaf].ID, Depth: 9,
		Fragments: []profile.Fragment{{Start: mixed.End - 5, End: mixed.End, Core: 1}},
	}
	early.ID, early.Parent = profile.ChildID(late.ID, 99), "R.77"
	late.Parent = early.ID
	mixed.Tasks = append(mixed.Tasks, late)
	for name, tr := range map[string]*profile.Trace{"self-parent": selfParent, "two-task cycle": cycle, "mixed cycle": mixed} {
		if err := tr.Validate(); (err == nil) != (name == "mixed cycle") {
			t.Errorf("%s: Validate returned %v", name, err)
		}
		var want []byte
		for _, jobs := range []int{1, 8} {
			pool := runpool.New(jobs)
			out := analysisOutputs(t, analyze(pool, tr, nil, Config{}, nil), pool)
			if want == nil {
				want = out
			} else if !bytes.Equal(out, want) {
				t.Errorf("%s: -j 8 analysis differs from -j 1", name)
			}
		}
	}
}

// cyclicLegacyArtifact is a v2 artifact an older writer left with the
// grain graph stored beside the trace, whose graph sections close a cycle
// under valid checksums (see ggp's TestLegacyCyclicGraphDecodes).
const cyclicLegacyArtifact = "../ggp/testdata/seed.v2-cyclic.ggp"

// TestCyclicLegacyArtifactAnalyses: the analysis of an older artifact whose
// stored graph closes a cycle reads the trace, not the stored graph. It
// renders every analysis product at -j 1 and -j 8, byte-identically to the
// same trace written in the current format.
func TestCyclicLegacyArtifactAnalyses(t *testing.T) {
	legacy, err := os.ReadFile(cyclicLegacyArtifact)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ggp.DecodeTrace(legacy, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	current, err := ggp.EncodeV2(tr, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, jobs := range []int{1, 8} {
		pool := runpool.New(jobs)
		for name, data := range map[string][]byte{"legacy": legacy, "current": current} {
			dec, err := ggp.Decode(data, pool, nil)
			if err != nil {
				t.Fatalf("-j %d %s: %v", jobs, name, err)
			}
			out := analysisOutputs(t, AnalyzeDecodedOn(pool, dec, nil, Config{}, nil), pool)
			if want == nil {
				want = out
			} else if !bytes.Equal(out, want) {
				t.Errorf("-j %d %s: analysis differs from the first rendering", jobs, name)
			}
		}
	}
}
