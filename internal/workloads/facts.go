package workloads

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// FactStore keeps, per input, what a verified live run of that input
// determined, so that later simulated runs of the same input replay it
// instead of redoing the real work. Only Sort records facts today: its
// per-leaf comparison counts and its parallel-merge split points are the
// only values its real sorting feeds into the simulation, and they depend
// on the input alone — never on the schedule, the core count or the page
// policy.
//
// Production is single-flight: the first run of an input that finds no
// facts claims their production and runs live; a run of the same input
// that starts while the claim is held waits for the facts and replays
// them. A producer that fails verification or panics gives its claim up,
// and a waiter then produces live itself, as a serial run would. So each
// input is recorded by exactly one run, at any parallelism.
//
// The owner decides the store's lifetime; nothing in this package holds
// one. It is safe for concurrent use: a published value is immutable.
type FactStore struct {
	mu sync.Mutex
	// claimEnded is signalled, on mu, whenever a claim is published or
	// given up.
	claimEnded         *sync.Cond
	sort               map[string]*sortFacts
	producing          map[string]bool // inputs whose facts a live run has claimed
	waiting            int             // runs blocked on another run's claim
	recorded, replayed uint64
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	s := &FactStore{sort: map[string]*sortFacts{}, producing: map[string]bool{}}
	s.claimEnded = sync.NewCond(&s.mu)
	return s
}

// Reset forgets every fact and zeroes the counters. A claim still held
// keeps its waiters blocked until it ends.
func (s *FactStore) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sort = map[string]*sortFacts{}
	s.recorded, s.replayed = 0, 0
}

// Stats reports how many inputs' facts were recorded and how many runs
// replayed them since creation or the last Reset.
func (s *FactStore) Stats() (recorded, replayed uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recorded, s.replayed
}

// acquireSort returns key's facts, counting a replay. When there are none
// and no other run is producing them, the caller claims their production
// and gets nil: it must run live and end the claim with publishSort or
// releaseSort. While another run holds the claim, acquireSort waits for it
// to end.
func (s *FactStore) acquireSort(key string) *sortFacts {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if f := s.sort[key]; f != nil {
			s.replayed++
			return f
		}
		if !s.producing[key] {
			s.producing[key] = true
			return nil
		}
		s.waiting++
		s.claimEnded.Wait()
		s.waiting--
	}
}

// publishSort ends the caller's claim on key by storing f as its facts,
// unless facts are stored already; it returns the facts now stored.
func (s *FactStore) publishSort(key string, f *sortFacts) *sortFacts {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.endClaim(key)
	if prev := s.sort[key]; prev != nil {
		return prev
	}
	s.sort[key] = f
	s.recorded++
	return f
}

// releaseSort gives up the caller's claim on key without facts, so that a
// waiting run produces them.
func (s *FactStore) releaseSort(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.endClaim(key)
}

func (s *FactStore) endClaim(key string) {
	delete(s.producing, key)
	s.claimEnded.Broadcast()
}

// FactUser is implemented by instances that can record into and replay
// from a FactStore. An instance that is never handed a store runs live
// and records nothing.
type FactUser interface {
	UseFacts(*FactStore)
}

// mergeKey names one split of Sort's parallel merge by its operands after
// the larger-run-first swap: (alo, ahi, blo, bhi, out).
//
// The key is unique within a run. A split merge has two non-empty runs
// that lie in different halves of the msort node that merges them, so the
// runs alone name that node: it is the smallest node containing both.
// Within one node's merge tree every split divides its output range
// [out, out+ahi-alo+bhi-blo) into two non-empty, disjoint parts, so the
// output ranges of two distinct splits are disjoint or strictly nested,
// and never equal.
type mergeKey [5]int32

type leafFact struct {
	lo    int
	comps uint64
}

type splitFact struct {
	key  mergeKey
	bmid int32
}

// sortFacts is everything Sort's input determines for the simulation: the
// comparison count of each sequential leaf, keyed by its lo (leaves
// partition the array, so lo is unique), and the b-run split point of each
// parallel merge split. It is O(tasks) words, never O(N): a run appends
// its facts as they occur, and seal sorts them by key for replay's binary
// searches. The lowered-cutoff input of Figure 5 (32 768 leaves, 150 132
// splits) holds about 4 MB.
type sortFacts struct {
	leaves []leafFact
	splits []splitFact
}

func compareLeaf(f leafFact, lo int) int { return cmp.Compare(f.lo, lo) }

func compareSplit(f splitFact, k mergeKey) int { return slices.Compare(f.key[:], k[:]) }

// seal sorts the facts by key and rejects a key recorded twice.
func (f *sortFacts) seal() error {
	slices.SortFunc(f.leaves, func(a, b leafFact) int { return compareLeaf(a, b.lo) })
	slices.SortFunc(f.splits, func(a, b splitFact) int { return compareSplit(a, b.key) })
	for i := 1; i < len(f.leaves); i++ {
		if f.leaves[i].lo == f.leaves[i-1].lo {
			return fmt.Errorf("sort: leaf at %d recorded twice", f.leaves[i].lo)
		}
	}
	for i := 1; i < len(f.splits); i++ {
		if f.splits[i].key == f.splits[i-1].key {
			return fmt.Errorf("sort: merge split %v recorded twice", f.splits[i].key)
		}
	}
	return nil
}

func (f *sortFacts) equal(g *sortFacts) bool {
	return slices.Equal(f.leaves, g.leaves) && slices.Equal(f.splits, g.splits)
}

// sortRun is one execution of a Sort program: live, it sorts real data
// and records into rec (when it claimed production of its input's facts
// in store); replaying, it reads each fact of facts exactly once, marking
// it in used*. Either way err holds the first fault the run saw, which
// Verify reports.
type sortRun struct {
	facts                 *sortFacts
	usedLeaves, usedSplit []bool
	used                  int

	rec      *sortFacts
	store    *FactStore // set while the run holds a production claim
	key      string
	finished bool   // the program body returned
	sum      uint64 // live: multiset fingerprint of the input
	err      error
}

func (r *sortRun) live() bool { return r.facts == nil }

// release gives up the run's production claim, if it still holds one.
func (r *sortRun) release() {
	if r.store != nil {
		r.store.releaseSort(r.key)
		r.store, r.rec = nil, nil
	}
}

func (r *sortRun) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("sort: "+format, args...)
	}
}

// use marks fact i of used as consumed and reports whether it already was.
func (r *sortRun) use(used []bool, i int) (twice bool) {
	twice, used[i] = used[i], true
	r.used++
	return twice
}

// leaf returns the comparison count of the leaf at lo: measured live by
// sort (and recorded), or replayed.
func (r *sortRun) leaf(lo int, sort func() uint64) uint64 {
	if r.live() {
		comps := sort()
		if r.rec != nil {
			r.rec.leaves = append(r.rec.leaves, leafFact{lo, comps})
		}
		return comps
	}
	i, ok := slices.BinarySearchFunc(r.facts.leaves, lo, compareLeaf)
	if !ok {
		r.fail("no recorded leaf at %d", lo)
		return 0
	}
	if r.use(r.usedLeaves, i) {
		r.fail("leaf at %d replayed twice", lo)
	}
	return r.facts.leaves[i].comps
}

// split returns the b-run split point of the merge (alo, ahi, blo, bhi,
// out): searched live (and recorded), or replayed. A missing fact yields
// blo, so the replay goes on to its end with the fault held for Verify.
func (r *sortRun) split(alo, ahi, blo, bhi, out int, search func() int) int {
	k := mergeKey{int32(alo), int32(ahi), int32(blo), int32(bhi), int32(out)}
	if r.live() {
		bmid := search()
		if r.rec != nil {
			r.rec.splits = append(r.rec.splits, splitFact{k, int32(bmid)})
		}
		return bmid
	}
	i, ok := slices.BinarySearchFunc(r.facts.splits, k, compareSplit)
	if !ok {
		r.fail("no recorded merge split %v", k)
		return blo
	}
	if r.use(r.usedSplit, i) {
		r.fail("merge split %v replayed twice", k)
	}
	return int(r.facts.splits[i].bmid)
}

// verifyReplay checks that the replay consumed every fact.
func (r *sortRun) verifyReplay() error {
	if r.err != nil {
		return r.err
	}
	if all := len(r.facts.leaves) + len(r.facts.splits); r.used != all {
		return fmt.Errorf("sort: replay used %d of %d facts", r.used, all)
	}
	return nil
}
