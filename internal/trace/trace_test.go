package trace

import (
	"strings"
	"testing"

	"graingraph/internal/cache"
	"graingraph/internal/profile"
)

func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := OverheadKind(0); k < numOverheadKinds; k++ {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Errorf("overhead kind %d has bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
}

func TestMetricsTotalsAndOverheadSplit(t *testing.T) {
	m := NewMetrics()
	m.Reset(3)
	m.Makespan = 100
	for i := 0; i < 3; i++ {
		w := m.W(i)
		w.Steals = uint64(i)
		w.FailedSteals = uint64(2 * i)
		w.Parks = 1
		w.Resumes = 1
		w.Spawns = 5
		w.InlinedSpawns = 2
		w.DequePushes = 4
		w.DequePops = 3
		w.QueueOps = 1
		w.OverheadBy[OvSpawn] = 10
		w.OverheadBy[OvSteal] = 5
		w.Overhead = 15
		w.Busy = 60
		w.Idle = 25
	}
	if m.Steals() != 3 || m.FailedSteals() != 6 {
		t.Errorf("steals/failed = %d/%d, want 3/6", m.Steals(), m.FailedSteals())
	}
	if m.Parks() != 3 || m.Resumes() != 3 || m.Spawns() != 15 || m.InlinedSpawns() != 6 {
		t.Error("park/resume/spawn totals wrong")
	}
	if m.DequePushes() != 12 || m.DequePops() != 9 || m.QueueOps() != 3 {
		t.Error("deque/queue totals wrong")
	}
	for i := 0; i < 3; i++ {
		if m.OverheadOf(i) != m.Workers[i].Overhead {
			t.Errorf("worker %d overhead split %d != total %d",
				i, m.OverheadOf(i), m.Workers[i].Overhead)
		}
	}
	busy, over, idle := m.timeShares()
	if got := busy + over + idle; got < 0.999 || got > 1.001 {
		t.Errorf("time shares sum to %f, want 1", got)
	}
}

func TestMetricsSortedDefs(t *testing.T) {
	m := NewMetrics()
	m.Reset(1)
	a := m.Def(profile.Loc("a.go", 1, "light"))
	a.Exec, a.Grains = 10, 1
	b := m.Def(profile.Loc("b.go", 2, "heavy"))
	b.Exec, b.Grains = 1000, 4
	// Tie on Exec: broken by location string.
	c1 := m.Def(profile.Loc("c.go", 1, "tie"))
	c1.Exec = 10
	defs := m.SortedDefs()
	if len(defs) != 3 {
		t.Fatalf("defs = %d, want 3", len(defs))
	}
	if defs[0].Loc.Func != "heavy" {
		t.Errorf("heaviest def first, got %v", defs[0].Loc)
	}
	if defs[1].Loc.File != "a.go" || defs[2].Loc.File != "c.go" {
		t.Errorf("tie not broken by location: %v, %v", defs[1].Loc, defs[2].Loc)
	}
	// Def returns the same aggregate for the same location.
	if m.Def(profile.Loc("a.go", 1, "light")) != a {
		t.Error("Def not idempotent per location")
	}
}

func TestCacheHitRates(t *testing.T) {
	c := cache.Counters{Accesses: 100, L1Miss: 20, L2Miss: 10, L3Miss: 4, Remote: 1}
	l1, l2, l3, mem, remote := CacheHitRates(c)
	if l1 != 0.8 {
		t.Errorf("l1 = %f, want 0.8", l1)
	}
	if l2 != 0.5 {
		t.Errorf("l2 = %f, want 0.5", l2)
	}
	if l3 != 0.6 {
		t.Errorf("l3 = %f, want 0.6", l3)
	}
	if mem != 4 || remote != 0.25 {
		t.Errorf("mem/remote = %d/%f, want 4/0.25", mem, remote)
	}
	// No activity: perfect hit rates, no memory traffic.
	l1, _, _, mem, remote = CacheHitRates(cache.Counters{})
	if l1 != 1 || mem != 0 || remote != 0 {
		t.Errorf("empty counters: l1 %f mem %d remote %f", l1, mem, remote)
	}
}

func TestSummaryAndRenderStable(t *testing.T) {
	m := NewMetrics()
	m.Reset(2)
	m.Makespan = 1000
	m.W(0).Busy, m.W(0).Overhead, m.W(0).Idle = 600, 100, 300
	m.W(1).Busy, m.W(1).Idle = 500, 500
	d := m.Def(profile.Loc("a.go", 3, "f"))
	d.Grains, d.Exec = 7, 1100
	if s := m.Summary(); !strings.Contains(s, "steals 0") || !strings.Contains(s, "busy 55.0%") {
		t.Errorf("summary = %q", s)
	}
	var b1, b2 strings.Builder
	if err := m.Render(&b1); err != nil {
		t.Fatal(err)
	}
	if err := m.Render(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("Render not byte-stable across calls")
	}
	if !strings.Contains(b1.String(), "a.go:3(f)") {
		t.Errorf("render missing definition row:\n%s", b1.String())
	}
}
