package runpool

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestChunksBoundaries pins the fixed chunking: boundaries depend only on
// (n, grain), every index is covered exactly once, and chunk c spans
// [c*grain, min(n, (c+1)*grain)).
func TestChunksBoundaries(t *testing.T) {
	cases := []struct{ n, grain, want int }{
		{0, 16, 0},
		{1, 16, 1},
		{16, 16, 1},
		{17, 16, 2},
		{100, 1, 100},
		{100, 0, 100}, // grain <= 0 normalizes to 1
		{5, 100, 1},
	}
	for _, c := range cases {
		if got := Chunks(c.n, c.grain); got != c.want {
			t.Errorf("Chunks(%d, %d) = %d, want %d", c.n, c.grain, got, c.want)
		}
	}

	for _, workers := range []int{1, 3, 8} {
		r := New(workers)
		n, grain := 1000, 64
		covered := make([]int32, n)
		var mu sync.Mutex
		var ranges [][3]int
		ParallelFor(r, n, grain, func(chunk, lo, hi int) {
			mu.Lock()
			ranges = append(ranges, [3]int{chunk, lo, hi})
			mu.Unlock()
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
		})
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", workers, i, c)
			}
		}
		for _, rg := range ranges {
			chunk, lo, hi := rg[0], rg[1], rg[2]
			wantLo := chunk * grain
			wantHi := wantLo + grain
			if wantHi > n {
				wantHi = n
			}
			if lo != wantLo || hi != wantHi {
				t.Fatalf("workers=%d: chunk %d spans [%d,%d), want [%d,%d)",
					workers, chunk, lo, hi, wantLo, wantHi)
			}
		}
	}
}

// TestParallelForDeterministic checks indexed writes assemble identically
// at every worker count.
func TestParallelForDeterministic(t *testing.T) {
	n, grain := 4097, 128
	compute := func(workers int) []int {
		out := make([]int, n)
		ParallelFor(New(workers), n, grain, func(chunk, lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = i*i + chunk
			}
		})
		return out
	}
	want := compute(1)
	for _, w := range []int{2, 4, 8} {
		got := compute(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
	var ran bool
	ParallelFor(nil, 3, 2, func(chunk, lo, hi int) { ran = true })
	if !ran {
		t.Error("nil pool did not run serially")
	}
}

// TestParallelReduceOrder verifies partials merge in chunk index order: a
// non-commutative (but range-associative) merge — string concatenation of
// per-chunk digests — must equal the serial left fold at every worker count.
func TestParallelReduceOrder(t *testing.T) {
	n, grain := 1000, 37
	body := func(chunk, lo, hi int, acc string) string {
		s := acc
		for i := lo; i < hi; i++ {
			s += string(rune('a' + i%26))
		}
		return s
	}
	merge := func(a, b string) string { return a + b }
	want := ParallelReduce(New(1), n, grain, "", body, merge)
	for _, w := range []int{2, 4, 8} {
		if got := ParallelReduce(New(w), n, grain, "", body, merge); got != want {
			t.Fatalf("workers=%d: reduce order differs", w)
		}
	}
	if got := ParallelReduce[int](nil, 0, 8, 42, nil, nil); got != 42 {
		t.Errorf("empty reduce = %d, want identity 42", got)
	}
}

// TestParallelReduceSum checks a plain associative+commutative reduction for
// correctness across worker counts.
func TestParallelReduceSum(t *testing.T) {
	n := 12345
	want := n * (n - 1) / 2
	for _, w := range []int{1, 2, 8} {
		got := ParallelReduce(New(w), n, 100, 0, func(chunk, lo, hi, acc int) int {
			for i := lo; i < hi; i++ {
				acc += i
			}
			return acc
		}, func(a, b int) int { return a + b })
		if got != want {
			t.Fatalf("workers=%d: sum = %d, want %d", w, got, want)
		}
	}
}
