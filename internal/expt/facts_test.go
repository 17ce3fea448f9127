package expt

import (
	"testing"

	"graingraph/internal/workloads"
)

// TestSortFactsRecordedOncePerInput pins the input-facts store's life
// cycle at -j 1: across the recorded suite's Sort runs (Figures 1, 4, 5
// and the §4.3.1 table run Sort) the default input and Figure 5's
// lowered-cutoff input each record once and the other seven default-input
// simulations replay; after ResetMemo the same run sorts and records
// again. The counts hold only for a -j 1 pass: at -j 2 whether a run
// records or replays depends on timing.
func TestSortFactsRecordedOncePerInput(t *testing.T) {
	s := figureSuite(t)
	if s.recorded != 2 || s.replayed != 7 {
		t.Errorf("Sort figures: %d recorded / %d replayed, want 2 / 7", s.recorded, s.replayed)
	}

	defer ResetMemo()
	ResetMemo()
	if recorded, replayed := FactStats(); recorded != 0 || replayed != 0 {
		t.Fatalf("after ResetMemo: %d recorded / %d replayed, want 0 / 0", recorded, replayed)
	}
	if _, err := Run(workloads.NewSort(workloads.DefaultSortParams()), Config{Cores: 48, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if recorded, replayed := FactStats(); recorded != 1 || replayed != 0 {
		t.Errorf("first Sort run after ResetMemo: %d recorded / %d replayed, want 1 / 0", recorded, replayed)
	}
}
