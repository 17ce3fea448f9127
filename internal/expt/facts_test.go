package expt

import (
	"io"
	"testing"

	"graingraph/internal/workloads"
)

// TestSortFactsRecordedOncePerInput pins the input-facts store's life
// cycle at -j 1: across the suite's Sort runs (Figures 1, 4, 5 and the
// §4.3.1 table, the only figures that run Sort) the default input and
// Figure 5's lowered-cutoff input each record once and the other seven
// default-input simulations replay; after ResetMemo the same run sorts
// and records again.
func TestSortFactsRecordedOncePerInput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every Sort figure; skipped in -short")
	}
	prev := parallelism()
	defer func() { SetParallelism(prev); ResetMemo() }()
	ResetMemo()
	SetParallelism(1)

	for _, fig := range []func(io.Writer) error{
		func(w io.Writer) error { _, err := Figure1(w, 48); return err },
		func(w io.Writer) error { _, err := Figure4(w); return err },
		func(w io.Writer) error { _, err := Figure5(w); return err },
		func(w io.Writer) error { _, err := SortPageTable(w); return err },
	} {
		if err := fig(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	if recorded, replayed := FactStats(); recorded != 2 || replayed != 7 {
		t.Errorf("Sort figures: %d recorded / %d replayed, want 2 / 7", recorded, replayed)
	}

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
