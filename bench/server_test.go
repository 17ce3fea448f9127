package main

import (
	"fmt"
	"testing"

	"graingraph/internal/profile"
)

func fakeArtifacts() []servedArtifact {
	arts := []servedArtifact{{id: "aa"}}
	for i := 0; i < 20000; i++ {
		arts[0].tasks = append(arts[0].tasks, profile.GrainID(fmt.Sprintf("R.%d", i)))
	}
	for p, n := range []int{1543, 8191, 89, 136, 400} { // the five programs' grain counts
		a := servedArtifact{id: fmt.Sprintf("b%d", p)}
		for i := 0; i < n; i++ {
			a.tasks = append(a.tasks, profile.GrainID(fmt.Sprintf("R.%d", i)))
		}
		arts = append(arts, a)
	}
	return arts
}

func TestRequestGenDeterministicPerSeed(t *testing.T) {
	arts := fakeArtifacts()
	a, b, other := newRequestGen(7, arts), newRequestGen(7, arts), newRequestGen(8, arts)
	same, differs := true, false
	for i := 0; i < 3; i++ {
		sa, sb, so := a.script(), b.script(), other.script()
		for j := range sa {
			if sa[j].path != sb[j].path {
				same = false
			}
			if sa[j].path != so[j].path {
				differs = true
			}
		}
	}
	if !same {
		t.Error("the same seed generated different scripts")
	}
	if !differs {
		t.Error("different seeds generated the same scripts")
	}
}

// A warm request must be one the server has not rendered before, or it
// measures a cache hit. Over the scripts of a whole run (a generous 120)
// fewer than 5 % may repeat, and half must go to the giant artifact.
func TestRequestGenNovelty(t *testing.T) {
	gen := newRequestGen(1, fakeArtifacts())
	seen := make(map[string]bool)
	total, repeats, giant, windows := 0, 0, 0, 0
	for i := 0; i < 120; i++ {
		for _, r := range gen.script() {
			total++
			if seen[r.path] {
				repeats++
			}
			seen[r.path] = true
			if r.art == 0 {
				giant++
			}
			if (r.window != nil) == (r.query != "") {
				t.Fatalf("request %q is not exactly one of window and query", r.path)
			}
			if r.window != nil {
				windows++
			}
		}
	}
	if rate := float64(repeats) / float64(total); rate >= 0.05 {
		t.Errorf("%d of %d requests repeat an earlier one (%.1f %%), want < 5 %%", repeats, total, 100*rate)
	}
	if giant*2 != total || windows*2 != total {
		t.Errorf("of %d requests %d go to the giant and %d are windows, want half each", total, giant, windows)
	}
}

const statszBefore = `{
 "uptime_ms": 10,
 "requests": {"GET summary": {"total": 1, "errors": 0}},
 "caches": {"analysis": {"hits": 5, "misses": 1}, "decode": {"hits": 0, "misses": 1}, "render": {"hits": 10, "misses": 6, "evictions": 2}},
 "cache_entries": {"analysis": 1, "decode": 1, "render": 4},
 "admission": {"waits": 3, "wait_ms": 40},
 "phases": [
  {"phase": "analyze:uts-m4-q18-full7-cut0", "count": 1, "total_ms": 400},
  {"phase": "metric:parallel-benefit", "count": 1, "total_ms": 50},
  {"phase": "metric:scatter", "count": 1, "total_ms": 70},
  {"phase": "whatif", "count": 1, "total_ms": 90},
  {"phase": "whatif:eval", "count": 21, "total_ms": 80},
  {"phase": "lod:window", "count": 4, "total_ms": 12},
  {"phase": "GET summary", "count": 1, "total_ms": 600}
 ]
}`

const statszAfter = `{
 "caches": {"analysis": {"hits": 25, "misses": 1}, "decode": {"hits": 0, "misses": 1}, "render": {"hits": 40, "misses": 26, "evictions": 9}},
 "admission": {"waits": 7, "wait_ms": 55},
 "phases": [
  {"phase": "analyze:uts-m4-q18-full7-cut0", "count": 1, "total_ms": 400},
  {"phase": "analyze:sort", "count": 1, "total_ms": 30},
  {"phase": "metric:parallel-benefit", "count": 2, "total_ms": 60},
  {"phase": "metric:scatter", "count": 2, "total_ms": 75},
  {"phase": "whatif", "count": 1, "total_ms": 90},
  {"phase": "whatif:eval", "count": 21, "total_ms": 80},
  {"phase": "lod:window", "count": 14, "total_ms": 52},
  {"phase": "upgrade:ggp2", "count": 1, "total_ms": 700}
 ]
}`

func TestStatszDelta(t *testing.T) {
	before, err := parseStatsz([]byte(statszBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseStatsz([]byte(statszAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := after.since(before)
	if d.Hits["render"] != 30 || d.Misses["render"] != 20 || d.Evictions["render"] != 7 {
		t.Errorf("render tier delta = %d hits, %d misses, %d evictions, want 30, 20, 7",
			d.Hits["render"], d.Misses["render"], d.Evictions["render"])
	}
	if d.Hits["analysis"] != 20 || d.Misses["analysis"] != 0 || d.Misses["decode"] != 0 {
		t.Errorf("analysis/decode deltas wrong: %+v %+v", d.Hits, d.Misses)
	}
	if d.AdmissionWaits != 4 || d.AdmissionWaitMS != 15 {
		t.Errorf("admission delta = %d waits, %d ms, want 4, 15", d.AdmissionWaits, d.AdmissionWaitMS)
	}
	// Families sum their members; "whatif:eval" nests inside "whatif" and
	// must not be added to it; a span that only appears later counts whole.
	for name, want := range map[string]int64{
		"analyze": 30, "metric": 15, "whatif": 0, "lod-window": 40, "upgrade-ggp2": 700, "admit": 0,
	} {
		if d.PhaseMS[name] != want {
			t.Errorf("phase %s delta = %d ms, want %d", name, d.PhaseMS[name], want)
		}
	}
	if _, err := parseStatsz([]byte(`{"error": "nope"}`)); err == nil {
		t.Error("a reply without a caches section parsed as /statsz")
	}
	if _, err := parseStatsz([]byte(`<html>`)); err == nil {
		t.Error("non-JSON parsed as /statsz")
	}
}

func TestPhaseName(t *testing.T) {
	for span, want := range map[string]string{
		"analyze:sort": "analyze", "decode:sidecar:lod": "decode", "assemble:graph": "assemble",
		"build": "build", "highlight": "highlight", "upgrade:ggp2": "upgrade-ggp2",
		"whatif": "whatif", "whatif:rank:top": "", "lod:window": "lod-window", "lod:index": "",
		"query:run": "query-run", "query:table": "", "export": "export", "admit": "admit",
		"GET window": "", "render:window": "", "ingest:decode": "",
	} {
		if got := phaseName(span); got != want {
			t.Errorf("phaseName(%q) = %q, want %q", span, got, want)
		}
	}
}
