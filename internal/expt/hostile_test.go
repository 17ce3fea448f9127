package expt

import (
	"bytes"
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
	return unindexedCopy(rts.Run(rts.Config{Program: "hostile", Cores: 4, Seed: 3}, randomTreeWithLoops(3)))
}

// TestHostileReferencesAnalyse: parent chains that loop are rejected by
// the reader (Validate: a task is recorded after its parent); handed to
// the analyses in memory, where nothing validated them, they still
// terminate, byte-identically at -j 1 and -j 8, because the owner table
// follows a task's parent only to an earlier record. References that name
// no recorded task cannot be held in memory at all, and the readers reject
// them (ggp's TestDanglingReferencesRejected).
func TestHostileReferencesAnalyse(t *testing.T) {
	selfParent := hostileRun()
	selfParent.Tasks[5].Parent = 5
	cycle := hostileRun()
	cycle.Tasks[5].Parent, cycle.Tasks[6].Parent = 6, 5
	for name, tr := range map[string]*profile.Trace{"self-parent": selfParent, "two-task cycle": cycle} {
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", name)
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
	dec, err := ggp.Decode(legacy, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	current, err := ggp.EncodeV2(dec.Trace, nil, nil)
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
