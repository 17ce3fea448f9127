package metrics

import (
	"math/rand"
	"slices"
	"testing"

	"graingraph/internal/core"
	"graingraph/internal/profile"
	"graingraph/internal/rts"
)

// randomDAGTrace simulates a random spawn tree so the delta DP is exercised
// over realistic graph shapes (forks, joins, loop chunks) rather than
// hand-built toys.
func randomDAGTrace(t *testing.T, seed int64, depth int) *core.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := rts.Run(rts.Config{Program: "delta-random", Cores: 4, Seed: uint64(seed)}, func(c rts.Ctx) {
		var walk func(c rts.Ctx, d int)
		walk = func(c rts.Ctx, d int) {
			c.Compute(profile.Time(1 + rng.Intn(40)))
			if d == 0 {
				return
			}
			kids := 1 + rng.Intn(3)
			for i := 0; i < kids; i++ {
				i := i
				c.Spawn(profile.Loc("delta.go", i, "walk"), func(c rts.Ctx) { walk(c, d-1) })
			}
			c.TaskWait()
			c.Compute(profile.Time(1 + rng.Intn(10)))
		}
		walk(c, depth)
	})
	return core.Build(tr)
}

// TestCriticalPathDeltaMatchesFullDP is the delta DP's oracle property: for
// random graphs and random sparse edits — including zeroings, inflations and
// edits on the critical path itself — CriticalPathDelta over the baseline
// must equal CriticalSpan of the fully edited weight vector.
func TestCriticalPathDeltaMatchesFullDP(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := randomDAGTrace(t, seed, 4)
		n := g.NumNodes()
		b := NewCPBaseline(g, nil, nil)

		full := make([]profile.Time, n)
		rng := rand.New(rand.NewSource(seed * 977))
		for trial := 0; trial < 20; trial++ {
			edits := make(map[core.NodeID]profile.Time)
			numEdits := 1 + rng.Intn(8)
			for i := 0; i < numEdits; i++ {
				node := core.NodeID(rng.Intn(n))
				switch rng.Intn(3) {
				case 0:
					edits[node] = 0
				case 1:
					edits[node] = profile.Time(rng.Intn(500))
				default:
					edits[node] = b.Weights()[node] * 3
				}
			}

			copy(full, b.Weights())
			for nd, w := range edits {
				full[nd] = w
			}
			want := CriticalSpan(g, full, nil)

			got, ok := CriticalPathDelta(b, edits, n+1)
			if !ok {
				t.Fatalf("seed %d trial %d: delta DP declined with maxDirty > n", seed, trial)
			}
			if got != want {
				t.Fatalf("seed %d trial %d: delta span %d, full DP %d (edits %v)",
					seed, trial, got, want, edits)
			}
		}
	}
}

// TestCriticalPathDeltaEmptyAndNoOpEdits pins the fast paths: no edits, and
// edits that restate the baseline weight, must return the baseline span
// without relaxation.
func TestCriticalPathDeltaEmptyAndNoOpEdits(t *testing.T) {
	g := randomDAGTrace(t, 42, 3)
	b := NewCPBaseline(g, nil, nil)
	if got, ok := CriticalPathDelta(b, nil, 0); !ok || got != b.Span() {
		t.Errorf("empty edits: got (%d, %v), want (%d, true)", got, ok, b.Span())
	}
	noop := map[core.NodeID]profile.Time{0: b.Weights()[0]}
	if got, ok := CriticalPathDelta(b, noop, 0); !ok || got != b.Span() {
		t.Errorf("no-op edit: got (%d, %v), want (%d, true)", got, ok, b.Span())
	}
}

// TestCriticalPathDeltaFallback pins the budget contract: when the dirty
// cone exceeds maxDirty, the call reports ok=false instead of a wrong span.
func TestCriticalPathDeltaFallback(t *testing.T) {
	g := randomDAGTrace(t, 7, 4)
	b := NewCPBaseline(g, nil, nil)
	// Editing a source node's weight dirties its whole downstream cone;
	// with a budget of 1 any non-trivial graph must decline.
	edits := map[core.NodeID]profile.Time{0: b.Weights()[0] + 1000}
	if _, ok := CriticalPathDelta(b, edits, 1); ok {
		t.Error("delta DP accepted a cone larger than maxDirty=1")
	}
}

// TestNewCPBaselineMatchesCriticalPathOver pins the baseline construction
// itself against the serial predecessor-column DP, run in level order.
func TestNewCPBaselineMatchesCriticalPathOver(t *testing.T) {
	g := randomDAGTrace(t, 3, 4)
	var topo []core.NodeID
	for l := 0; l < g.NumLevels(); l++ {
		for _, n := range g.LevelNodes(l) {
			topo = append(topo, core.NodeID(n))
		}
	}
	wantLen, wantPath := oracleCriticalPath(g, topo)
	b := NewCPBaseline(g, nil, nil)
	if b.Span() != wantLen || !slices.Equal(b.Path(), wantPath) {
		t.Errorf("baseline span %d path %v, want %d %v", b.Span(), b.Path(), wantLen, wantPath)
	}
	// Explicit weights are copied, not aliased.
	w := make([]profile.Time, g.NumNodes())
	for i := range w {
		w[i] = profile.Time(i)
	}
	b2 := NewCPBaseline(g, w, nil)
	w[0] = 999999
	if b2.Weights()[0] == 999999 {
		t.Error("NewCPBaseline aliased the caller's weight slice")
	}
}
