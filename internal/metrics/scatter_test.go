package metrics

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"graingraph/internal/profile"
)

// fixtureGrain is one hand-built grain of a scatter fixture.
type fixtureGrain struct {
	id, parent profile.GrainID
	core       int
}

// scatterFixture runs the scatter pass over hand-built grains: each becomes
// a one-fragment task, after a parentless task of unrecorded core for each
// parent no grain names, so the sibling sets come out of the trace's own
// numbering. It returns each grain's scatter by ID.
func scatterFixture(t *testing.T, grains []fixtureGrain) map[profile.GrainID]int64 {
	t.Helper()
	tr := &profile.Trace{}
	nums := map[profile.GrainID]int32{"": -1}
	add := func(id profile.GrainID, parent int32, core int) {
		nums[id] = int32(len(tr.Tasks))
		tr.Tasks = append(tr.Tasks, &profile.TaskRecord{
			ID: id, Parent: parent, Fragments: []profile.Fragment{{Core: core}},
		})
	}
	for _, g := range grains {
		if _, ok := nums[g.parent]; !ok {
			add(g.parent, -1, -1)
		}
		add(g.id, nums[g.parent], g.core)
	}
	num := startOrder(tr)
	rep := &Report{Trace: tr, Num: num, Scatter: make([]int64, len(num))}
	scatter(rep, Options{})
	byID := make(map[profile.GrainID]int64, len(num))
	for row := range num {
		byID[rep.ID(row)] = rep.Scatter[row]
	}
	return byID
}

// TestScatterUnknownCoreSentinel: a grain with an unrecorded core must not
// inherit its siblings' median — it gets the ScatterUnknown sentinel, while
// siblings with recorded cores still get the median over recorded cores.
func TestScatterUnknownCoreSentinel(t *testing.T) {
	byID := scatterFixture(t, []fixtureGrain{
		{"R.0", "R", 0},
		{"R.1", "R", 24},
		{"R.2", "R", -1},
	})
	if got := byID["R.2"]; got != ScatterUnknown {
		t.Errorf("unrecorded-core grain scatter = %d, want ScatterUnknown (%d)", got, ScatterUnknown)
	}
	if got := byID["R.0"]; got != 24 {
		t.Errorf("recorded-core grain scatter = %d, want 24", got)
	}
	if got := byID["R.1"]; got != 24 {
		t.Errorf("recorded-core grain scatter = %d, want 24", got)
	}
}

// TestScatterTooFewRecordedCores: a sibling set with fewer than two
// recorded cores cannot report a distance; every member gets the sentinel,
// not a silent 0 indistinguishable from "perfectly packed".
func TestScatterTooFewRecordedCores(t *testing.T) {
	byID := scatterFixture(t, []fixtureGrain{
		{"R.0", "R", 5},
		{"R.1", "R", -1},
		{"R.2", "R", -1},
	})
	for _, id := range []profile.GrainID{"R.0", "R.1", "R.2"} {
		if got := byID[id]; got != ScatterUnknown {
			t.Errorf("%s scatter = %d, want ScatterUnknown", id, got)
		}
	}
}

// TestScatterOnlyChildStaysZero: an only child is trivially unscattered —
// scatter 0, even when its core went unrecorded.
func TestScatterOnlyChildStaysZero(t *testing.T) {
	byID := scatterFixture(t, []fixtureGrain{
		{"R", "", -1},
	})
	if got := byID["R"]; got != 0 {
		t.Errorf("only-child scatter = %d, want 0", got)
	}
}

// bruteMedianPairwise is the oracle: materialize every unordered pair
// distance, sort, take the upper-middle element.
func bruteMedianPairwise(cores []int) int {
	var dists []int
	for i := range cores {
		for j := i + 1; j < len(cores); j++ {
			d := cores[i] - cores[j]
			if d < 0 {
				d = -d
			}
			dists = append(dists, d)
		}
	}
	if len(dists) == 0 {
		return 0
	}
	sort.Sort(sort.Reverse(sort.IntSlice(dists)))
	// Upper middle of the ascending order = index (n-1) - n/2 descending.
	return dists[len(dists)-1-len(dists)/2]
}

// TestMedianPairwiseDistanceProperty checks medianPairwiseDistance against
// the brute-force oracle over random core sets, including even pair counts
// where the documented convention takes the upper-middle element. Cores
// span a machine's 48 and, as an artifact may record them, all of int32.
func TestMedianPairwiseDistanceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(14)
		if trial%2 == 1 {
			n = 2 + rng.Intn(300)
		}
		cores := make([]int, n)
		for i := range cores {
			if trial < 200 {
				cores[i] = rng.Intn(48)
			} else {
				cores[i] = int(rng.Int63n(1<<32) - 1<<31)
			}
		}
		want := bruteMedianPairwise(cores)
		got := medianPairwiseDistance(slices.Clone(cores))
		if got != want {
			t.Fatalf("trial %d, cores %v: median = %d, oracle = %d", trial, cores, got, want)
		}
		// The median must be an actually occurring pair distance.
		found := false
		for i := range cores {
			for j := i + 1; j < n; j++ {
				d := cores[i] - cores[j]
				if d < 0 {
					d = -d
				}
				if d == got {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("trial %d: median %d is not a pair distance of %v", trial, got, cores)
		}
	}
}

// TestMedianPairwiseEvenTieConvention pins the documented convention: with
// an even number of pairs the upper-middle element is returned.
func TestMedianPairwiseEvenTieConvention(t *testing.T) {
	// Distances of {0,1,2,10}: [1,1,2,8,9,10] — six pairs, upper middle 8.
	if got := medianPairwiseDistance([]int{0, 1, 2, 10}); got != 8 {
		t.Errorf("even pair count median = %d, want 8 (upper middle)", got)
	}
}

// TestScatterLargeSiblingSet runs the scatter pass over one sibling set of
// 10⁵ grains on distinct, evenly spaced cores spread over most of the
// non-negative int32 range: distance k·step occurs n−k times, so the median
// is the smallest k·step whose cumulative pair count passes the middle. The
// exact computation needs no pair list, so the set finishes in well under a
// second.
func TestScatterLargeSiblingSet(t *testing.T) {
	const n, step = 100_000, 20_000
	grains := make([]fixtureGrain, n)
	for i := range grains {
		grains[i] = fixtureGrain{profile.GrainID(fmt.Sprintf("R.%d", i)), "R", i * step}
	}
	mid := n * (n - 1) / 2 / 2
	k, within := 0, 0
	for within <= mid {
		k++
		within += n - k
	}
	byID := scatterFixture(t, grains)
	for _, id := range []profile.GrainID{"R.0", "R.50000", "R.99999"} {
		if got := byID[id]; got != int64(k*step) {
			t.Errorf("%s scatter = %d, want %d", id, got, k*step)
		}
	}
}
