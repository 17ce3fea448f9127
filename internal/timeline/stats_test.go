package timeline

import (
	"bytes"
	"strings"
	"testing"

	"graingraph/internal/cache"
	"graingraph/internal/profile"
	"graingraph/internal/rts"
)

// statsTrace is a hand-built work-stealing run on three workers: the root
// spawns a heavy task, stolen by worker 1, and two light ones, one popped
// by worker 0 and one inlined, then a loop of two chunks; the root's join
// suspends.
func statsTrace() *profile.Trace {
	heavy, light, tie := profile.Loc("b.go", 2, "heavy"), profile.Loc("a.go", 1, "light"), profile.Loc("c.go", 1, "tie")
	frag := func(start, end profile.Time, core int, acc uint64) profile.Fragment {
		return profile.Fragment{Start: start, End: end, Core: core, Counters: cache.Counters{Accesses: acc}}
	}
	return &profile.Trace{
		Program: "stats", Cores: 3, Scheduler: profile.SchedulerWorkStealing, End: 1000,
		Workers: []profile.WorkerStat{{Busy: 600, Overhead: 100}, {Busy: 500}, {}},
		Tasks: []*profile.TaskRecord{
			{ID: profile.RootID, Parent: -1, Loc: profile.Loc("main.go", 1, "main"),
				Fragments: []profile.Fragment{frag(0, 10, 0, 4), frag(20, 30, 0, 0), frag(40, 50, 0, 0), frag(60, 70, 0, 0), frag(900, 910, 0, 0)},
				Boundaries: []profile.Boundary{
					{Kind: profile.BoundaryFork, At: 10, Child: 1},
					{Kind: profile.BoundaryFork, At: 30, Child: 2},
					{Kind: profile.BoundaryFork, At: 50, Child: 3},
					{Kind: profile.BoundaryJoin, At: 70, Joined: []int32{1, 2, 3}, Suspended: 800},
				}},
			{ID: "R.0", Parent: 0, Loc: heavy, CreatedBy: 0, StartTime: 15,
				Fragments: []profile.Fragment{frag(15, 515, 1, 8)}},
			{ID: "R.1", Parent: 0, Loc: light, CreatedBy: 0, StartTime: 100, Inlined: true,
				Fragments: []profile.Fragment{frag(100, 110, 0, 0)}},
			{ID: "R.2", Parent: 0, Loc: light, CreatedBy: 0, StartTime: 200,
				Fragments: []profile.Fragment{frag(200, 210, 0, 0)}},
		},
		Loops: []*profile.LoopRecord{{ID: 0, Loc: tie}},
		Chunks: []*profile.ChunkRecord{
			{Loop: 0, Seq: 0, Thread: 0, Start: 300, End: 310, Counters: cache.Counters{Accesses: 2, L1Miss: 1}},
			{Loop: 0, Seq: 1, Thread: 2, Start: 300, End: 310},
		},
	}
}

// TestStatsTotals: the report folds the derived per-worker counts and the
// per-definition rollup.
func TestStatsTotals(t *testing.T) {
	s := StatsFromTrace(statsTrace())
	want := profile.WorkerCounts{Spawns: 3, Inlined: 1, Pushes: 2, Pops: 1, Steals: 1, Parks: 1, Resumes: 2}
	if got := s.Total(); got != want {
		t.Errorf("totals:\n got %+v\nwant %+v", got, want)
	}
	if s.Workers[1].Steals != 1 || s.Workers[0].Pops != 1 {
		t.Errorf("per-worker counts %+v: want the steal on worker 1 and the pop on worker 0", s.Workers)
	}
	if c := s.Cache(); c.Accesses != 14 || c.L1Miss != 1 {
		t.Errorf("cache total %+v, want 14 accesses and 1 L1 miss", c)
	}
	busy, over, idle := s.timeShares()
	if got := busy + over + idle; got < 0.999 || got > 1.001 {
		t.Errorf("time shares sum to %f, want 1", got)
	}
}

// TestStatsSortedDefs: definitions are ordered heaviest first, ties by
// location string, and count every task and chunk of the definition.
func TestStatsSortedDefs(t *testing.T) {
	defs := StatsFromTrace(statsTrace()).Defs
	var got []string
	for _, d := range defs {
		got = append(got, d.Loc.String())
	}
	want := []string{"b.go:2(heavy)", "main.go:1(main)", "a.go:1(light)", "c.go:1(tie)"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("definition order %v, want %v", got, want)
	}
	if defs[2].Grains != 2 || defs[2].Exec != 20 || defs[3].Grains != 2 || defs[3].Exec != 20 {
		t.Errorf("light/loop rollups %+v %+v: want 2 grains and 20 cycles each", defs[2], defs[3])
	}
}

func TestCacheHitRates(t *testing.T) {
	c := cache.Counters{Accesses: 100, L1Miss: 20, L2Miss: 10, L3Miss: 4, Remote: 1}
	l1, l2, l3, mem, remote := cacheHitRates(c)
	if l1 != 0.8 {
		t.Errorf("l1 = %f, want 0.8", l1)
	}
	if l2 != 0.5 {
		t.Errorf("l2 = %f, want 0.5", l2)
	}
	if l3 != 0.6 {
		t.Errorf("l3 = %f, want 0.6", l3)
	}
	if mem != 4 || remote != 0.25 {
		t.Errorf("mem/remote = %d/%f, want 4/0.25", mem, remote)
	}
	// No activity: perfect hit rates, no memory traffic.
	l1, _, _, mem, remote = cacheHitRates(cache.Counters{})
	if l1 != 1 || mem != 0 || remote != 0 {
		t.Errorf("empty counters: l1 %f mem %d remote %f", l1, mem, remote)
	}
}

func TestSummaryAndRenderStable(t *testing.T) {
	s := StatsFromTrace(statsTrace())
	if sum := s.Summary(); !strings.HasPrefix(sum, "steals 1, parks 1, resumes 2, spawns 3 (1 inlined), busy 36.7%") {
		t.Errorf("summary = %q", sum)
	}
	var b1, b2 bytes.Buffer
	if err := s.Render(&b1); err != nil {
		t.Fatal(err)
	}
	if err := StatsFromTrace(statsTrace()).Render(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("Render not byte-stable across calls")
	}
	for _, want := range []string{" 1 successful\n", "b.go:2(heavy)", " 2 pushes, 1 pops\n"} {
		if !strings.Contains(b1.String(), want) {
			t.Errorf("render missing %q:\n%s", want, b1.String())
		}
	}
	if strings.Contains(b1.String(), "central-queue") {
		t.Errorf("work-stealing render shows central-queue ops:\n%s", b1.String())
	}
}

// TestStatsOfSimulatedRun: on a real run every definition's exec adds up
// to the busy time and the counts agree with the scheduler instants.
func TestStatsOfSimulatedRun(t *testing.T) {
	var fib func(c rts.Ctx, n int)
	fib = func(c rts.Ctx, n int) {
		if n < 2 {
			c.Compute(100)
			return
		}
		c.Spawn(profile.Loc("a.go", 1, "fib"), func(c rts.Ctx) { fib(c, n-1) })
		c.Spawn(profile.Loc("a.go", 1, "fib"), func(c rts.Ctx) { fib(c, n-2) })
		c.TaskWait()
	}
	tr := rts.Run(rts.Config{Program: "tl", Cores: 4, Seed: 1}, func(c rts.Ctx) { fib(c, 10) })
	s := StatsFromTrace(tr)
	tot := s.Total()
	if tot.Steals == 0 || tot.Parks == 0 {
		t.Fatalf("totals %+v: want steals and parks", tot)
	}
	if tot.Pushes != tot.Pops+tot.Steals {
		t.Errorf("pushes %d ≠ pops %d + steals %d", tot.Pushes, tot.Pops, tot.Steals)
	}
	var n [3]uint64
	for _, in := range tr.SchedInstants() {
		n[in.Kind]++
	}
	if n != [3]uint64{tot.Steals, tot.Parks, tot.Resumes} {
		t.Errorf("instants %v, counts %d/%d/%d", n, tot.Steals, tot.Parks, tot.Resumes)
	}
}
