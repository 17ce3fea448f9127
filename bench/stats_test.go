package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{50, 3}, {1, 1}, {20, 1}, {21, 2}, {90, 5}, {99, 5}, {100, 5},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// Nearest rank never interpolates: an even count yields the lower middle.
	if got := median([]float64{1, 2, 3, 4}); got != 2 {
		t.Errorf("median of 1..4 = %v, want 2 (nearest rank)", got)
	}
	if got := meanMedian([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("meanMedian of 1..4 = %v, want 2.5", got)
	}
}

// The driver computes spreads with Python's statistics.quantiles(v, n=4);
// these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4}, 1.5, 4.5}, // extrapolates past the ends, as Python does
		{[]float64{0.44, 0.97, 1.17, 0.5, 0.61}, 0.47, 1.07},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
