package workloads

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"graingraph/internal/machine"
	"graingraph/internal/profile"
	"graingraph/internal/rts"
)

// mergeBranchy is the straightforward two-way merge that merge replaced:
// the oracle for its output.
func mergeBranchy(d, t []int32, alo, ahi, blo, bhi, out int) {
	i, j, k := alo, blo, out
	for i < ahi && j < bhi {
		if d[i] <= d[j] {
			t[k] = d[i]
			i++
		} else {
			t[k] = d[j]
			j++
		}
		k++
	}
	for ; i < ahi; i++ {
		t[k] = d[i]
		k++
	}
	for ; j < bhi; j++ {
		t[k] = d[j]
		k++
	}
}

// TestMergeMatchesBranchy compares merge with the branchy oracle on random,
// duplicate-heavy and empty runs, in both operand orders and at an offset
// output position.
func TestMergeMatchesBranchy(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 2000; trial++ {
		an, bn := rng.IntN(40), rng.IntN(40)
		if trial%10 == 0 {
			an = 0
		}
		span := int32(1 << 30)
		if trial%3 == 0 {
			span = 3 // duplicate-heavy
		}
		d := make([]int32, an+bn)
		for i := range d {
			d[i] = rng.Int32N(span)
		}
		slices.Sort(d[:an])
		slices.Sort(d[an:])
		for _, ops := range [][4]int{{0, an, an, an + bn}, {an, an + bn, 0, an}} {
			out := rng.IntN(5)
			got := make([]int32, out+an+bn)
			want := make([]int32, out+an+bn)
			merge(d, got, ops[0], ops[1], ops[2], ops[3], out)
			mergeBranchy(d, want, ops[0], ops[1], ops[2], ops[3], out)
			if !slices.Equal(got, want) {
				t.Fatalf("runs %v into %d: merge %v, oracle %v", ops, out, got, want)
			}
		}
	}
}

// TestSortVerifyCatchesCorruption pins that Verify checks the multiset,
// not only the order: a sorted array that lost one input element fails.
func TestSortVerifyCatchesCorruption(t *testing.T) {
	inst := NewSort(SortParams{N: 1 << 12, SeqCutoff: 256, InsertionCutoff: 16, Seed: 1})
	runOn(t, inst, 4)
	i := slices.IndexFunc(inst.data[1:], func(v int32) bool { return v != inst.data[0] })
	inst.data[i] = inst.data[i+1] // still sorted, one element lost
	if err := inst.Verify(); err == nil || !strings.Contains(err.Error(), "permutation") {
		t.Fatalf("Verify after corrupting data[%d] = %v, want a permutation error", i, err)
	}
}

// smallSortParams are the tuned and the Figure 5 lowered cutoff settings
// at test scale.
func smallSortParams() []SortParams {
	tuned := SortParams{N: 1 << 12, SeqCutoff: 512, MergeCutoff: 2048, InsertionCutoff: 20, Seed: 11}
	lowered := tuned
	lowered.SeqCutoff /= 128
	lowered.MergeCutoff /= 128
	return []SortParams{tuned, lowered}
}

// TestSortReplayMatchesLive pins replay ≡ live: for both cutoff settings,
// every core count, runtime flavour, scheduler and page policy, a run that
// replays the recorded facts yields a trace equal, record for record, to a
// live run without a store.
func TestSortReplayMatchesLive(t *testing.T) {
	for _, p := range smallSortParams() {
		store := NewFactStore()
		rec := NewSort(p)
		rec.UseFacts(store)
		runOn(t, rec, 4)
		runs := 0
		for _, cores := range []int{1, 4, 48} {
			for _, fl := range []rts.Flavor{rts.FlavorMIR, rts.FlavorGCC, rts.FlavorICC} {
				for _, sched := range []rts.SchedulerKind{rts.WorkStealing, rts.CentralQueueSched} {
					for _, pol := range []machine.Policy{machine.FirstTouch, machine.RoundRobin} {
						cfg := rts.Config{Program: "sort", Cores: cores, Flavor: fl, Scheduler: sched, Policy: pol, Seed: 3}
						live := NewSort(p)
						want := rts.Run(cfg, live.Program())
						if err := live.Verify(); err != nil {
							t.Fatal(err)
						}
						replay := NewSort(p)
						replay.UseFacts(store)
						got := rts.Run(cfg, replay.Program())
						if err := replay.Verify(); err != nil {
							t.Fatalf("%+v %+v: replay: %v", p, cfg, err)
						}
						if replay.data != nil {
							t.Fatalf("%+v: replay allocated the arrays", p)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%+v %+v: replayed trace differs from live (makespan %d vs %d, %d vs %d tasks)",
								p, cfg, got.Makespan(), want.Makespan(), len(got.Tasks), len(want.Tasks))
						}
						runs++
					}
				}
			}
		}
		if recorded, replayed := store.Stats(); recorded != 1 || replayed != uint64(runs) {
			t.Errorf("%+v: store stats %d recorded / %d replayed, want 1 / %d", p, recorded, replayed, runs)
		}
	}
}

// eagerCtx runs the program serially outside the simulator. Spawn queues a
// child and TaskWait runs the queued children, except that a task's
// TaskWait calls from the brokenFrom-th on (counting from 0; -1 never)
// return at once and leave the children to run after the root body, as a
// runtime would that lets a parent pass its taskwait before its children
// execute.
type eagerCtx struct {
	brokenFrom int
	waits      int
	pending    []func(rts.Ctx)
	late       *[]func(rts.Ctx)
}

func (c *eagerCtx) Spawn(_ profile.SrcLoc, body func(rts.Ctx)) { c.pending = append(c.pending, body) }

func (c *eagerCtx) TaskWait() {
	kids := c.pending
	c.pending = nil
	c.waits++
	if c.brokenFrom >= 0 && c.waits > c.brokenFrom {
		*c.late = append(*c.late, kids...)
		return
	}
	for _, body := range kids {
		c.child(body)
	}
}

func (c *eagerCtx) child(body func(rts.Ctx)) {
	k := &eagerCtx{brokenFrom: c.brokenFrom, late: c.late}
	body(k)
	k.TaskWait()
}

func (c *eagerCtx) For(profile.SrcLoc, int, int, rts.ForOpt, func(rts.Ctx, int, int)) {
	panic("eagerCtx: For")
}
func (c *eagerCtx) Compute(uint64)                                 {}
func (c *eagerCtx) Load(*machine.Region, int64, int64)             {}
func (c *eagerCtx) Store(*machine.Region, int64, int64)            {}
func (c *eagerCtx) LoadStrided(*machine.Region, int64, int, int64) {}
func (c *eagerCtx) Alloc(name string, size int64) *machine.Region {
	return &machine.Region{Name: name, Size: size}
}

// runEager runs inst's program on an eagerCtx, then any children a broken
// TaskWait left behind, and verifies.
func runEager(inst Instance, brokenFrom int) error {
	var late []func(rts.Ctx)
	root := &eagerCtx{brokenFrom: brokenFrom, late: &late}
	root.child(inst.Program())
	for len(late) > 0 {
		body := late[0]
		late = late[1:]
		root.child(body)
	}
	return inst.Verify()
}

// TestSortVerifyCatchesEarlyTaskWait pins that a runtime whose TaskWait
// returns before the children run fails Verify both live and on replay,
// while the same serial runtime with a correct TaskWait passes. Broken
// from every task's first TaskWait, a node starts merging unsorted
// halves; broken from the second, only the merges run late, and at this
// size only the root's merge splits, so the root falls short of N.
func TestSortVerifyCatchesEarlyTaskWait(t *testing.T) {
	p := smallSortParams()[0]
	store := NewFactStore()
	rec := NewSort(p)
	rec.UseFacts(store)
	if err := runEager(rec, -1); err != nil {
		t.Fatalf("correct TaskWait, live: %v", err)
	}
	for _, tc := range []struct {
		name       string
		store      *FactStore
		brokenFrom int
		want       string
	}{
		{"live, halves", nil, 0, "started with"},
		{"replay, halves", store, 0, "started with"},
		{"live, root", nil, 1, "finished with"},
		{"replay, root", store, 1, "finished with"},
		{"replay, correct", store, -1, ""},
	} {
		inst := NewSort(p)
		if tc.store != nil {
			inst.UseFacts(tc.store)
		}
		err := runEager(inst, tc.brokenFrom)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Verify = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	if _, replayed := store.Stats(); replayed != 3 {
		t.Errorf("store replayed %d runs, want 3", replayed)
	}
}

// TestSortFactsRejectMisuse pins the fact bookkeeping's own checks: a key
// recorded twice fails sealing, and a fact replayed twice fails the run.
func TestSortFactsRejectMisuse(t *testing.T) {
	dupLeaf := &sortFacts{leaves: []leafFact{{8, 3}, {0, 1}, {8, 3}}}
	dupSplit := &sortFacts{splits: []splitFact{{mergeKey{0, 4, 4, 8, 0}, 6}, {mergeKey{0, 4, 4, 8, 0}, 6}}}
	for _, f := range []*sortFacts{dupLeaf, dupSplit} {
		if err := f.seal(); err == nil || !strings.Contains(err.Error(), "recorded twice") {
			t.Errorf("seal(%+v) = %v, want a recorded-twice error", f, err)
		}
	}
	f := &sortFacts{leaves: []leafFact{{0, 5}}, splits: []splitFact{{mergeKey{0, 4, 4, 8, 0}, 6}}}
	if err := f.seal(); err != nil {
		t.Fatal(err)
	}
	for _, replay := range []func(r *sortRun){
		func(r *sortRun) { r.leaf(0, nil) },
		func(r *sortRun) { r.split(0, 4, 4, 8, 0, nil) },
	} {
		r := &sortRun{facts: f, usedLeaves: make([]bool, 1), usedSplit: make([]bool, 1)}
		replay(r)
		if r.err != nil {
			t.Fatalf("first use: %v", r.err)
		}
		replay(r)
		if r.err == nil || !strings.Contains(r.err.Error(), "replayed twice") {
			t.Errorf("second use: err = %v, want a replayed-twice error", r.err)
		}
	}
}

// TestSortReplayRejectsForeignFacts pins that a replay fails on a fact it
// never uses (facts of the lowered cutoff replayed by the tuned one) and
// on a fact it lacks (the other way round).
func TestSortReplayRejectsForeignFacts(t *testing.T) {
	ps := smallSortParams()
	store := NewFactStore()
	for _, p := range ps {
		rec := NewSort(p)
		rec.UseFacts(store)
		runOn(t, rec, 4)
	}
	tuned, lowered := NewSort(ps[0]).Key(), NewSort(ps[1]).Key()
	store.sort[tuned], store.sort[lowered] = store.sort[lowered], store.sort[tuned]
	for _, p := range ps {
		inst := NewSort(p)
		inst.UseFacts(store)
		rts.Run(rts.Config{Program: "sort", Cores: 4, Seed: 1}, inst.Program())
		if err := inst.Verify(); err == nil {
			t.Errorf("%+v: replay of another input's facts verified", p)
		}
	}
}

// TestFactStoreConcurrentSharing runs several goroutines' simulations of
// one input against one store (run it under -race): however the first
// round interleaves, exactly one run records and the others wait for its
// facts and replay them; the second round replays; every trace is the
// serial live run's.
func TestFactStoreConcurrentSharing(t *testing.T) {
	p := smallSortParams()[0]
	store := NewFactStore()
	cfg := rts.Config{Program: "sort", Cores: 8, Seed: 2}
	want := rts.Run(cfg, NewSort(p).Program())
	const workers = 4
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		errs := make([]error, workers)
		traces := make([]*profile.Trace, workers)
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				inst := NewSort(p)
				inst.UseFacts(store)
				traces[g] = rts.Run(cfg, inst.Program())
				errs[g] = inst.Verify()
			}()
		}
		wg.Wait()
		for g := range traces {
			if errs[g] != nil {
				t.Fatalf("round %d worker %d: %v", round, g, errs[g])
			}
			if !reflect.DeepEqual(traces[g], want) {
				t.Fatalf("round %d worker %d: trace differs from the live run", round, g)
			}
		}
		wantReplayed := uint64((round+1)*workers - 1)
		if recorded, replayed := store.Stats(); recorded != 1 || replayed != wantReplayed {
			t.Errorf("after round %d: store stats %d recorded / %d replayed, want 1 / %d", round, recorded, replayed, wantReplayed)
		}
	}
	store.Reset()
	if recorded, replayed := store.Stats(); recorded != 0 || replayed != 0 || len(store.sort) != 0 {
		t.Errorf("after Reset: %d recorded / %d replayed, %d inputs", recorded, replayed, len(store.sort))
	}
}

// spawnGate is a serial Ctx whose Spawn blocks until open is closed and
// then panics, as a task body that fails partway would.
type spawnGate struct {
	eagerCtx
	open chan struct{}
}

func (c *spawnGate) Spawn(profile.SrcLoc, func(rts.Ctx)) {
	<-c.open
	panic("spawnGate: the task fails")
}

// TestFactStoreHandsOffFailedClaim pins the claim's failure paths: a
// producer whose Verify fails, or whose body panics, while another run of
// its input waits on its claim, gives the claim up, and the waiter sorts
// live, records, and yields the serial live run's trace.
func TestFactStoreHandsOffFailedClaim(t *testing.T) {
	p := smallSortParams()[1]
	cfg := rts.Config{Program: "sort", Cores: 8, Seed: 2}
	want := rts.Run(cfg, NewSort(p).Program())
	key := NewSort(p).Key()

	for _, tc := range []struct {
		name string
		// start begins the producer's run and returns once it holds the
		// claim; fail makes it fail.
		start func(producer *SortInstance) (fail func())
	}{
		{"Verify fails", func(producer *SortInstance) func() {
			// Every TaskWait returns before its children run, so merges
			// start on unsorted halves and Verify reports it.
			var late []func(rts.Ctx)
			root := &eagerCtx{brokenFrom: 0, late: &late}
			root.child(producer.Program())
			for len(late) > 0 {
				body := late[0]
				late = late[1:]
				root.child(body)
			}
			return func() {
				if err := producer.Verify(); err == nil || !strings.Contains(err.Error(), "started with") {
					t.Errorf("producer's Verify = %v, want an ordering error", err)
				}
			}
		}},
		{"body panics", func(producer *SortInstance) func() {
			gate := &spawnGate{open: make(chan struct{})}
			panicked := make(chan any)
			go func() {
				defer func() { panicked <- recover() }()
				producer.Program()(gate)
			}()
			waitUntil(t, "the producer's claim", func(s *FactStore) bool { return s.producing[key] }, producer.store)
			return func() {
				close(gate.open)
				if r := <-panicked; r == nil {
					t.Errorf("producer's body returned, want its panic")
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := NewFactStore()
			producer := NewSort(p)
			producer.UseFacts(store)
			fail := tc.start(producer)

			type result struct {
				tr   *profile.Trace
				err  error
				live bool
			}
			done := make(chan result)
			go func() {
				inst := NewSort(p)
				inst.UseFacts(store)
				tr := rts.Run(cfg, inst.Program())
				done <- result{tr, inst.Verify(), inst.data != nil}
			}()
			waitUntil(t, "a waiting run", func(s *FactStore) bool { return s.waiting == 1 }, store)
			fail()
			res := <-done
			if res.err != nil {
				t.Fatalf("waiter: %v", res.err)
			}
			if !res.live {
				t.Error("the waiter replayed instead of sorting live")
			}
			if !reflect.DeepEqual(res.tr, want) {
				t.Error("the waiter's trace differs from the serial live run's")
			}
			if recorded, replayed := store.Stats(); recorded != 1 || replayed != 0 {
				t.Errorf("store stats %d recorded / %d replayed, want 1 / 0", recorded, replayed)
			}
			if len(store.producing) != 0 {
				t.Errorf("claims still held after both runs: %v", store.producing)
			}
		})
	}
}

// waitUntil polls cond on s, under its lock, until it holds; what names
// the awaited state.
func waitUntil(t *testing.T, what string, cond func(*FactStore) bool, s *FactStore) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		s.mu.Lock()
		ok := cond(s)
		s.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func benchmarkSort(b *testing.B, store *FactStore) {
	cfg := rts.Config{Program: "sort", Cores: 48, Seed: 1}
	for b.Loop() {
		inst := NewSort(DefaultSortParams())
		if store != nil {
			inst.UseFacts(store)
		}
		rts.Run(cfg, inst.Program())
		if err := inst.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSortLive simulates the default Sort on 48 cores, sorting for
// real: the path of every run without a fact store.
func BenchmarkSortLive(b *testing.B) { benchmarkSort(b, nil) }

// BenchmarkSortReplay simulates the same run from recorded facts.
func BenchmarkSortReplay(b *testing.B) {
	store := NewFactStore()
	inst := NewSort(DefaultSortParams())
	inst.UseFacts(store)
	rts.Run(rts.Config{Program: "sort", Cores: 4, Seed: 1}, inst.Program())
	if err := inst.Verify(); err != nil {
		b.Fatal(err)
	}
	benchmarkSort(b, store)
}

// BenchmarkMerge merges two sorted 1 Mi-element runs, branch-free and
// with the branchy oracle.
func BenchmarkMerge(b *testing.B) {
	const n = 2 << 20
	d, t := make([]int32, n), make([]int32, n)
	rng := newRNG(1)
	for i := range d {
		d[i] = rng.Int32()
	}
	slices.Sort(d[:n/2])
	slices.Sort(d[n/2:])
	for _, m := range []struct {
		name string
		f    func(d, t []int32, alo, ahi, blo, bhi, out int)
	}{{"branchfree", merge}, {"branchy", mergeBranchy}} {
		b.Run(m.name, func(b *testing.B) {
			for b.Loop() {
				m.f(d, t, 0, n/2, n/2, n, 0)
			}
		})
	}
}
