package export

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"graingraph/internal/metrics"
	"graingraph/internal/whatif"
)

func testProjections(t *testing.T) []whatif.Projection {
	t.Helper()
	g, a := testGraph(t)
	rep := metrics.Analyze(g.Trace, g, nil, metrics.Options{})
	e := whatif.New(g, rep)
	ps, err := e.Rank(a, nil, whatif.RankOptions{TopN: 3})
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestJSONWithWhatIfSection(t *testing.T) {
	g, a := testGraph(t)
	ps := testProjections(t)
	var buf bytes.Buffer
	if err := JSONWithWhatIfPool(&buf, g, a, ps, nil); err != nil {
		t.Fatal(err)
	}
	var out struct {
		WhatIf []jsonWhatIf `json:"whatif"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("annotated dump is not valid JSON: %v", err)
	}
	if len(out.WhatIf) != len(ps) {
		t.Fatalf("whatif section has %d entries, want %d", len(out.WhatIf), len(ps))
	}
	for i, ann := range out.WhatIf {
		if ann.Rank != i+1 {
			t.Errorf("entry %d has rank %d", i, ann.Rank)
		}
		if ann.Hypothesis != ps[i].Label || ann.Makespan != ps[i].Makespan {
			t.Errorf("entry %d = %+v does not match projection %+v", i, ann, ps[i])
		}
	}

	// Nil projections must keep the plain schema: no whatif key at all.
	var plain bytes.Buffer
	if err := JSONWithWhatIfPool(&plain, g, a, nil, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), `"whatif"`) {
		t.Error("plain dump contains a whatif key")
	}
}

func TestDOTWithWhatIfComments(t *testing.T) {
	g, a := testGraph(t)
	ps := testProjections(t)
	var buf bytes.Buffer
	if err := DOTWithWhatIfPool(&buf, g, a, ViewParallelBenefit, ps, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for i, p := range ps {
		if !strings.Contains(out, p.Label) {
			t.Errorf("DOT output missing hypothesis %d label %q", i, p.Label)
		}
	}
	if !strings.HasPrefix(out, "// what-if #1:") {
		t.Errorf("DOT output does not lead with what-if comments:\n%.200s", out)
	}
	// The graph body must be untouched by the annotations.
	var plain bytes.Buffer
	if err := DOTWithWhatIfPool(&plain, g, a, ViewParallelBenefit, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(out, plain.String()) {
		t.Error("annotated DOT body differs from plain DOT")
	}
}
