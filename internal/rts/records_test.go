package rts

import (
	"reflect"
	"testing"

	"graingraph/internal/profile"
)

// TestRecordArenasExactAndIndependent: the record slices a run hands out
// live in shared arenas, so each must have cap == len — appending to one
// record's slice then reallocates instead of writing into its neighbour's.
// Two runs of one config must give deep-equal traces, before and after
// every record's slices have been appended to.
func TestRecordArenasExactAndIndependent(t *testing.T) {
	var joins, loops int
	for seed := uint64(0); seed < 6; seed++ {
		for _, fl := range []Flavor{FlavorMIR, FlavorGCC, FlavorICC} {
			for _, cores := range []int{1, 4} {
				cfg := Config{Program: "rand", Cores: cores, Seed: seed,
					Flavor: fl, ThrottleLimit: 1 + int(seed%3)}
				a, b := Run(cfg, randomProgram(seed)), Run(cfg, randomProgram(seed))
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d %v p%d: two runs of one config differ", seed, fl, cores)
				}
				for _, rec := range a.Tasks {
					if cap(rec.Fragments) != len(rec.Fragments) || cap(rec.Boundaries) != len(rec.Boundaries) {
						t.Fatalf("seed %d %v p%d task %s: fragments len %d cap %d, boundaries len %d cap %d",
							seed, fl, cores, rec.ID, len(rec.Fragments), cap(rec.Fragments),
							len(rec.Boundaries), cap(rec.Boundaries))
					}
					for _, bd := range rec.Boundaries {
						if cap(bd.Joined) != len(bd.Joined) {
							t.Fatalf("seed %d %v p%d task %s: joined len %d cap %d",
								seed, fl, cores, rec.ID, len(bd.Joined), cap(bd.Joined))
						}
						if bd.Kind == profile.BoundaryJoin {
							joins++
						}
						if bd.Kind == profile.BoundaryLoop {
							loops++
						}
					}
				}
				for _, rec := range a.Tasks {
					_ = append(rec.Fragments, profile.Fragment{Start: 1, End: 2})
					_ = append(rec.Boundaries, profile.Boundary{Kind: profile.BoundaryJoin, At: 3})
					for _, bd := range rec.Boundaries {
						_ = append(bd.Joined, 99)
					}
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d %v p%d: appending to one record's slices changed another record", seed, fl, cores)
				}
			}
		}
	}
	if joins == 0 || loops == 0 {
		t.Fatalf("%d joins, %d loops: want both exercised", joins, loops)
	}
}
