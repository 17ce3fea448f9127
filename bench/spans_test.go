package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// A parent's self time subtracts what its children cover, counting the
// stretch two concurrent children share once and clipping a child that
// outlives its parent.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []spanRecord{
		{ID: 0, Parent: -1, Op: 0, Name: "op.warm", Start: 0, End: 10},
		{ID: 1, Parent: 0, Op: 0, Name: "grainserved.script", Start: 1, End: 5},
		{ID: 2, Parent: 0, Op: 0, Name: "grainserved.script", Start: 3, End: 8}, // overlaps span 1 on [3,5]
		{ID: 3, Parent: 0, Op: 0, Name: "export.dot", Start: 9, End: 12},        // outlives the parent
		{ID: 4, Parent: 2, Op: 0, Name: "lod.window", Start: 4, End: 6},
		{ID: 5, Parent: -1, Op: -1, Name: "ggp.decode_v1", Start: 20, End: 30}, // a probe, not a session
		{ID: 6, Parent: 0, Op: 0, Name: "query.run", Start: 2, End: -1},        // never ended
	}
	self := selfTimes(spans)
	// Children cover [1,8] and [9,10]: 8 of the root's 10 seconds.
	for id, want := range map[int]float64{0: 2, 1: 4, 2: 3, 3: 3, 4: 2, 5: 10, 6: 0} {
		if !near(self[id], want) {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	if got := spanCoverage(spans); !near(got, 0.8) {
		t.Errorf("span coverage = %v, want 0.8 (the probe span must not count)", got)
	}
	layers := layerSelfTimes(spans)
	for layer, want := range map[string]float64{"grainserved": 7, "export": 3, "lod": 2} {
		if !near(layers[layer], want) {
			t.Errorf("layer %s self time = %v, want %v", layer, layers[layer], want)
		}
	}
	if _, ok := layers["ggp"]; ok {
		t.Error("probe span leaked into the sessions' layer self times")
	}
	if _, ok := layers["op"]; ok {
		t.Error("op root span counted as a layer")
	}
}

func TestRecorderNilIsOff(t *testing.T) {
	var rec *recorder
	sp := rec.root(0, "op.cold")
	ran := false
	sp.in("core.build", func() { ran = true })
	sp.child("x").end()
	sp.end()
	if !ran {
		t.Error("span.in on a nil span did not run its body")
	}
	if got := rec.snapshot(); got != nil {
		t.Errorf("nil recorder has spans: %v", got)
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder()
	root := rec.root(3, "op.cold")
	root.in("ggp.decode_file", func() {})
	c := root.child("expt.analyze_decoded")
	c.child("core.build").end()
	c.end()
	root.end()
	spans := rec.snapshot()
	if len(spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(spans))
	}
	for _, s := range spans {
		if s.Op != 3 {
			t.Errorf("span %q has op %d, want 3", s.Name, s.Op)
		}
		if s.End < s.Start {
			t.Errorf("span %q ends before it starts", s.Name)
		}
	}
	if spans[3].Name != "core.build" || spans[3].Parent != spans[2].ID || spans[1].Parent != spans[0].ID {
		t.Errorf("wrong parents: %+v", spans)
	}
}
