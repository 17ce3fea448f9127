package workloads

import (
	"fmt"
	"math"

	"graingraph/internal/machine"
	"graingraph/internal/profile"
	"graingraph/internal/rts"
)

// SortParams configures the BOTS Sort port: three-phase divide-and-conquer
// (parallel merge sort → sequential quick sort → insertion sort), with the
// cutoffs the paper calls "crucial for performance".
type SortParams struct {
	N int // elements
	// SeqCutoff switches to sequential quick sort below this subarray size
	// (phase 2). Lowering it creates more, smaller grains — the experiment
	// of Figure 5b.
	SeqCutoff int
	// MergeCutoff switches the parallel (cilkmerge-style) merge to a
	// sequential merge below this output size; 0 derives it from SeqCutoff.
	MergeCutoff int
	// InsertionCutoff switches quick sort to insertion sort (phase 3).
	InsertionCutoff int
	Seed            uint64
}

// DefaultSortParams mirrors the paper's well-tuned configuration at laptop
// scale: the array (2×16 MiB with the ping-pong buffer) exceeds a socket's
// L3 so memory placement matters, and the cutoff is sized so the grain
// graph lands near the paper's 815 grains (Figure 5a).
func DefaultSortParams() SortParams {
	return SortParams{N: 1 << 22, SeqCutoff: 16384, MergeCutoff: 65536, InsertionCutoff: 20, Seed: 11}
}

// SortInstance is a runnable Sort workload. Its two arrays are allocated
// by the first live run, so an instance whose runs all replay facts (or
// are memo hits) never holds them.
type SortInstance struct {
	P     SortParams
	data  []int32
	tmp   []int32
	store *FactStore
	last  *sortRun
}

// NewSort creates a Sort instance.
func NewSort(p SortParams) *SortInstance { return &SortInstance{P: p} }

// Name implements Instance.
func (s *SortInstance) Name() string { return fmt.Sprintf("sort-n%d-cut%d", s.P.N, s.P.SeqCutoff) }

// Key implements Keyed: the content address covers every parameter.
func (s *SortInstance) Key() string { return paramKey("sort", s.P) }

// UseFacts implements FactUser: a run whose input has facts in store
// replays them, moving no data; the run that claims their production
// sorts live, records, and publishes its facts once Verify passes; a run
// that starts while another holds the claim waits for the facts. So every
// run of an instance with a store must be verified: Verify ends its claim.
func (s *SortInstance) UseFacts(store *FactStore) { s.store = store }

// newRun starts one execution: a replay when the store has this input's
// facts (waiting for them while another run produces them), else a live
// run over freshly generated data.
func (s *SortInstance) newRun() *sortRun {
	r := &sortRun{}
	if s.store != nil && s.P.N <= math.MaxInt32 { // mergeKey holds int32 positions
		if r.facts = s.store.acquireSort(s.Key()); r.facts != nil {
			r.usedLeaves = make([]bool, len(r.facts.leaves))
			r.usedSplit = make([]bool, len(r.facts.splits))
		} else {
			r.rec, r.store, r.key = &sortFacts{}, s.store, s.Key()
		}
	}
	if r.live() {
		if s.data == nil {
			s.data, s.tmp = make([]int32, s.P.N), make([]int32, s.P.N)
		}
		rng := newRNG(s.P.Seed)
		for i := range s.data {
			v := int32(rng.Int32())
			s.data[i] = v
			r.sum += fingerprint(v)
		}
	}
	s.last = r
	return r
}

// fingerprint hashes one element; the wrapping sum of fingerprints over
// an array is a multiset checksum that any lost, duplicated or altered
// element changes (with overwhelming probability).
func fingerprint(v int32) uint64 {
	x := uint64(uint32(v)) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// Program implements Instance: the master initializes the array
// (first-touching every page), then sorts it with recursive tasks.
//
// A live run really sorts. A replay issues the same Compute/Load/Store
// charges and the same Spawn/TaskWait sequence with the input-determined
// values read from the facts. Both check task ordering the same way: each
// msort node counts the elements its leaves and merges completed, its
// halves must be complete when it starts merging, and the root must reach
// N.
func (s *SortInstance) Program() func(rts.Ctx) {
	return func(c rts.Ctx) {
		n := s.P.N
		arr := c.Alloc("array", int64(n)*4)
		tmp := c.Alloc("tmp", int64(n)*4)

		// Sequential initialization by the master: under first-touch
		// placement every page lands on node 0 — the root cause of the
		// work inflation the paper fixes with round-robin placement.
		r := s.newRun()
		// A body that does not return (a panic here or in any task, which
		// unwinds every parked task) gives its production claim up;
		// Verify ends the claim of one that does.
		defer func() {
			if !r.finished {
				r.release()
			}
		}()
		c.Store(arr, 0, int64(n)*4)
		c.Store(tmp, 0, int64(n)*4)
		c.Compute(uint64(n) * costArith)

		mergeCutoff := s.P.MergeCutoff
		if mergeCutoff <= 0 {
			mergeCutoff = 4 * s.P.SeqCutoff
		}

		// bufs are the two ping-pong buffers (BOTS cilksort alternates
		// merge direction between levels instead of copying back): 0 is the
		// array, 1 the other buffer, and 1-b the other one of b. Tasks name
		// a buffer by its index, so a spawn closure captures one word for
		// it. A replay's data slices are nil.
		type buf struct {
			d []int32
			r *machine.Region
		}
		bufs := [2]buf{{s.data, arr}, {s.tmp, tmp}}
		if !r.live() {
			bufs[0].d, bufs[1].d = nil, nil
		}

		// pmerge merges the sorted runs src[alo:ahi] and src[blo:bhi] into
		// dst[out:...], splitting recursively like BOTS/cilkmerge: take the
		// midpoint of the larger run, binary-search its value in the other,
		// and merge the two halves as independent tasks. Each sequential
		// merge adds its output size to *done.
		var pmerge func(c rts.Ctx, from, to int, alo, ahi, blo, bhi, out int, done *int)
		pmerge = func(c rts.Ctx, from, to int, alo, ahi, blo, bhi, out int, done *int) {
			src, dst := &bufs[from], &bufs[to]
			an, bn := ahi-alo, bhi-blo
			if an < bn {
				alo, ahi, blo, bhi = blo, bhi, alo, ahi
				an, bn = bn, an
			}
			if an+bn <= mergeCutoff || bn == 0 {
				if r.live() {
					merge(src.d, dst.d, alo, ahi, blo, bhi, out)
				}
				c.Load(src.r, int64(alo)*4, int64(an)*4)
				c.Load(src.r, int64(blo)*4, int64(bn)*4)
				c.Store(dst.r, int64(out)*4, int64(an+bn)*4)
				c.Compute(uint64(an+bn) * 3 * costCompare)
				*done += an + bn
				return
			}
			amid := alo + an/2
			bmid := r.split(alo, ahi, blo, bhi, out, func() int {
				pivot := src.d[amid]
				lo2, hi2 := blo, bhi
				for lo2 < hi2 {
					m := (lo2 + hi2) / 2
					if src.d[m] < pivot {
						lo2 = m + 1
					} else {
						hi2 = m
					}
				}
				return lo2
			})
			c.Compute(uint64(16) * costCompare) // binary search
			left := (amid - alo) + (bmid - blo)
			c.Spawn(profile.Loc("sort.go", 61, "pmerge"), func(c rts.Ctx) {
				pmerge(c, from, to, alo, amid, blo, bmid, out, done)
			})
			c.Spawn(profile.Loc("sort.go", 62, "pmerge"), func(c rts.Ctx) {
				pmerge(c, from, to, amid, ahi, bmid, bhi, out+left, done)
			})
			c.TaskWait()
		}

		// msort sorts [lo,hi) leaving the result in dst; recursion sorts the
		// halves into the other buffer and merges across. It adds to *done
		// the elements its leaf or merge completed by the time it returns,
		// so a merge still running then leaves its parent's count short.
		var msort func(c rts.Ctx, to int, lo, hi int, done *int)
		msort = func(c rts.Ctx, to int, lo, hi int, done *int) {
			dst := &bufs[to]
			size := hi - lo
			if size <= s.P.SeqCutoff {
				comps := r.leaf(lo, func() uint64 {
					// Input values always originate in s.data; when dst is
					// the other buffer they are copied across first, as the
					// real alternating-buffer cilksort does.
					if to != 0 {
						copy(dst.d[lo:hi], s.data[lo:hi])
					}
					return s.quicksort(dst.d, lo, hi-1)
				})
				c.Load(dst.r, int64(lo)*4, int64(size)*4)
				c.Store(dst.r, int64(lo)*4, int64(size)*4)
				c.Compute(comps * costCompare)
				*done += size
				return
			}
			mid := lo + size/2
			from := 1 - to
			var halves, merged int
			c.Spawn(profile.Loc("sort.go", 42, "msort"), func(c rts.Ctx) { msort(c, from, lo, mid, &halves) })
			c.Spawn(profile.Loc("sort.go", 43, "msort"), func(c rts.Ctx) { msort(c, from, mid, hi, &halves) })
			c.TaskWait()
			if halves != size {
				r.fail("merge of [%d,%d) started with %d of %d elements sorted", lo, hi, halves, size)
			}
			pmerge(c, from, to, lo, mid, mid, hi, lo, &merged)
			c.TaskWait()
			*done += merged
		}
		var sorted int
		msort(c, 0, 0, n, &sorted)
		c.TaskWait()
		if sorted != n {
			r.fail("finished with %d of %d elements sorted", sorted, n)
		}
		r.finished = true
	}
}

// merge merges the sorted runs d[alo:ahi] and d[blo:bhi] into t[out:].
// The loop selects instead of branching, so the unpredictable comparison
// costs no mispredictions; on ties it takes from the a run.
func merge(d, t []int32, alo, ahi, blo, bhi, out int) {
	a, b := d[alo:ahi], d[blo:bhi]
	o := t[out : out+len(a)+len(b)]
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		lt := 0
		if y < x {
			lt = 1
		}
		v := x
		if lt == 1 {
			v = y
		}
		o[k] = v
		i += 1 - lt
		j += lt
		k++
	}
	k += copy(o[k:], a[i:])
	copy(o[k:], b[j:])
}

// quicksort sorts d[lo..hi] inclusive and returns the comparison count.
func (s *SortInstance) quicksort(d []int32, lo, hi int) uint64 {
	var comps uint64
	for lo < hi {
		if hi-lo < s.P.InsertionCutoff {
			comps += s.insertion(d, lo, hi)
			return comps
		}
		p, cc := s.partition(d, lo, hi)
		comps += cc
		// Recurse into the smaller side to bound stack depth.
		if p-lo < hi-p {
			comps += s.quicksort(d, lo, p-1)
			lo = p + 1
		} else {
			comps += s.quicksort(d, p+1, hi)
			hi = p - 1
		}
	}
	return comps
}

func (s *SortInstance) partition(d []int32, lo, hi int) (int, uint64) {
	mid := lo + (hi-lo)/2
	// Median-of-three pivot.
	if d[mid] < d[lo] {
		d[mid], d[lo] = d[lo], d[mid]
	}
	if d[hi] < d[lo] {
		d[hi], d[lo] = d[lo], d[hi]
	}
	if d[hi] < d[mid] {
		d[hi], d[mid] = d[mid], d[hi]
	}
	pivot := d[mid]
	d[mid], d[hi-1] = d[hi-1], d[mid]
	i, j := lo, hi-1
	var comps uint64
	for {
		for i++; d[i] < pivot; i++ {
			comps++
		}
		for j--; d[j] > pivot; j-- {
			comps++
		}
		comps += 2
		if i >= j {
			break
		}
		d[i], d[j] = d[j], d[i]
	}
	d[i], d[hi-1] = d[hi-1], d[i]
	return i, comps
}

func (s *SortInstance) insertion(d []int32, lo, hi int) uint64 {
	var comps uint64
	for i := lo + 1; i <= hi; i++ {
		v := d[i]
		j := i - 1
		for j >= lo && d[j] > v {
			d[j+1] = d[j]
			j--
			comps++
		}
		d[j+1] = v
		comps++
	}
	return comps
}

// Verify implements Instance. A live run's array must be sorted and hold
// the input's multiset; a replay must have used every fact exactly once.
// Both must have passed the ordering checks. A live run that claimed its
// input's facts publishes them here, once they are known to come from a
// verified run, and gives the claim up otherwise.
func (s *SortInstance) Verify() error {
	r := s.last
	if r == nil {
		return fmt.Errorf("sort: no run to verify")
	}
	if !r.live() {
		return r.verifyReplay()
	}
	defer r.release()
	if r.err != nil {
		return r.err
	}
	var sum uint64
	for i, v := range s.data {
		if i > 0 && s.data[i-1] > v {
			return fmt.Errorf("sort: data[%d]=%d > data[%d]=%d", i-1, s.data[i-1], i, v)
		}
		sum += fingerprint(v)
	}
	if sum != r.sum {
		return fmt.Errorf("sort: the sorted array is not a permutation of the input")
	}
	if rec := r.rec; rec != nil {
		if err := rec.seal(); err != nil {
			return err
		}
		got := r.store.publishSort(r.key, rec)
		r.store, r.rec = nil, nil // published: immutable from here on
		if !got.equal(rec) {
			return fmt.Errorf("sort: this run's facts differ from an earlier run of the same input")
		}
	}
	return nil
}
