package profile

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"graingraph/internal/cache"
)

func TestSrcLocString(t *testing.T) {
	if got := Loc("sparselu.go", 246, "bmod").String(); got != "sparselu.go:246(bmod)" {
		t.Errorf("SrcLoc = %q", got)
	}
	if got := Loc("fft.go", 4680, "").String(); got != "fft.go:4680" {
		t.Errorf("SrcLoc without func = %q", got)
	}
}

func TestChildIDPathEnumeration(t *testing.T) {
	if got := ChildID(RootID, 0); got != "R.0" {
		t.Errorf("ChildID = %q", got)
	}
	if got := ChildID(ChildID(RootID, 2), 5); got != "R.2.5" {
		t.Errorf("nested ChildID = %q", got)
	}
}

func TestChildIDUniqueProperty(t *testing.T) {
	// Distinct (parent, index) pairs always produce distinct IDs.
	f := func(i1, i2 uint8, p1, p2 uint8) bool {
		parent1 := ChildID(RootID, int(p1))
		parent2 := ChildID(RootID, int(p2))
		id1 := ChildID(parent1, int(i1))
		id2 := ChildID(parent2, int(i2))
		same := p1 == p2 && i1 == i2
		return (id1 == id2) == same
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func makeTestTrace() *Trace {
	// Root R spawns R.0 and R.1, waits for both (wait 100), then runs a
	// 2-chunk loop.
	root := &TaskRecord{
		ID: RootID, Loc: Loc("main.go", 1, "main"),
		StartTime: 0, EndTime: 1000,
		Fragments: []Fragment{
			{Start: 0, End: 100, Core: 0},
			{Start: 100, End: 150, Core: 0},
			{Start: 300, End: 400, Core: 0},
			{Start: 900, End: 1000, Core: 0},
		},
		Boundaries: []Boundary{
			{Kind: BoundaryFork, At: 100, Child: "R.0"},
			{Kind: BoundaryJoin, At: 150, Joined: []GrainID{"R.0", "R.1"}, Wait: 100},
			{Kind: BoundaryLoop, At: 400, Loop: 0},
		},
	}
	c0 := &TaskRecord{
		ID: "R.0", Parent: RootID, Depth: 1, Loc: Loc("main.go", 10, "work"),
		CreateTime: 100, CreateCost: 50, StartTime: 110, EndTime: 210,
		Fragments: []Fragment{{Start: 110, End: 210, Core: 1,
			Counters: cache.Counters{Compute: 90, Stall: 10, Accesses: 5, L1Miss: 1}}},
	}
	c1 := &TaskRecord{
		ID: "R.1", Parent: RootID, Depth: 1, Loc: Loc("main.go", 10, "work"),
		CreateTime: 120, CreateCost: 50, StartTime: 130, EndTime: 250,
		Fragments: []Fragment{{Start: 130, End: 250, Core: 2}},
	}
	loop := &LoopRecord{ID: 0, Loc: Loc("main.go", 20, "loop"), Schedule: ScheduleDynamic,
		ChunkSize: 4, Lo: 0, Hi: 8, Start: 400, End: 900, StartThread: 0, Threads: []int{0, 1}}
	ch0 := &ChunkRecord{Loop: 0, Seq: 0, Thread: 0, Lo: 0, Hi: 4, Start: 410, End: 600, Bookkeep: 10}
	ch1 := &ChunkRecord{Loop: 0, Seq: 1, Thread: 1, Lo: 4, Hi: 8, Start: 420, End: 880, Bookkeep: 10}
	return &Trace{
		Program: "test", Cores: 4, Start: 0, End: 1000,
		Tasks:  []*TaskRecord{root, c0, c1},
		Loops:  []*LoopRecord{loop},
		Chunks: []*ChunkRecord{ch0, ch1},
		Bookkeeps: []*BookkeepRecord{
			{Loop: 0, Thread: 0, Grabs: 2, Total: 20},
			{Loop: 0, Thread: 1, Grabs: 2, Total: 20},
		},
	}
}

func TestTaskRecordAccessors(t *testing.T) {
	tr := makeTestTrace()
	root := tr.Task(RootID)
	if root == nil {
		t.Fatal("root not found")
	}
	if got := root.ExecTime(); got != 100+50+100+100 {
		t.Errorf("root ExecTime = %d, want 350", got)
	}
	if got := root.FirstCore(); got != 0 {
		t.Errorf("root FirstCore = %d", got)
	}
	c0 := tr.Task("R.0")
	counters := c0.TotalCounters()
	if counters.Compute != 90 || counters.Stall != 10 {
		t.Errorf("R.0 counters = %+v", counters)
	}
	if (&TaskRecord{}).FirstCore() != -1 {
		t.Error("empty task FirstCore should be -1")
	}
	if tr.Task("nope") != nil {
		t.Error("lookup of unknown ID should return nil")
	}
}

func TestTraceMakespanAndCounts(t *testing.T) {
	tr := makeTestTrace()
	if tr.Makespan() != 1000 {
		t.Errorf("Makespan = %d", tr.Makespan())
	}
	if tr.NumGrains() != 5 {
		t.Errorf("NumGrains = %d, want 5 (3 tasks + 2 chunks)", tr.NumGrains())
	}
}

func TestChunkGrainID(t *testing.T) {
	tr := makeTestTrace()
	id := tr.ChunkID(1)
	if id != "L0@t0#1[4,8)" {
		t.Errorf("chunk grain ID = %q", id)
	}
	if n := tr.Lookup(id); n != int32(len(tr.Tasks))+1 || tr.ID(n) != id {
		t.Errorf("chunk 1 is grain %d (%q), want %d", n, tr.ID(n), len(tr.Tasks)+1)
	}
}

// TestGrainsUnifiedView reads tasks and chunks through the one set of
// per-number accessors the analysis table uses.
func TestGrainsUnifiedView(t *testing.T) {
	tr := makeTestTrace()
	if tr.NumGrains() != 5 {
		t.Fatalf("NumGrains = %d, want 5", tr.NumGrains())
	}
	r0 := tr.Lookup("R.0")
	if r0 < 0 {
		t.Fatal("R.0 grain missing")
	}
	if tr.GrainKind(r0) != KindTask || tr.GrainExec(r0) != 100 || tr.GrainCreateCost(r0) != 50 {
		t.Errorf("R.0: kind %v exec %d create %d", tr.GrainKind(r0), tr.GrainExec(r0), tr.GrainCreateCost(r0))
	}
	// The root's join waited 100 over two joined children: 50 each.
	if share := tr.SyncShares(); share[r0] != 50 {
		t.Errorf("R.0 sync share = %d, want 50", share[r0])
	}
	// Chunks carry bookkeeping as creation cost and the loop pseudo-parent.
	ch := tr.Lookup("L0@t0#0[0,4)")
	if ch < 0 {
		t.Fatal("chunk grain missing")
	}
	if tr.GrainKind(ch) != KindChunk || tr.GrainCreateCost(ch) != 10 || tr.GrainParent(ch) != LoopParentID(0) || tr.GrainDepth(ch) != 1 {
		t.Errorf("chunk: kind %v create %d parent %q depth %d",
			tr.GrainKind(ch), tr.GrainCreateCost(ch), tr.GrainParent(ch), tr.GrainDepth(ch))
	}
	c := tr.Chunks[0]
	if s, e := tr.GrainSpan(ch); s != c.Start || e != c.End || tr.GrainExec(ch) != c.Duration() || tr.GrainCore(ch) != c.Thread {
		t.Errorf("chunk span %d..%d exec %d core %d, want the record's", s, e, tr.GrainExec(ch), tr.GrainCore(ch))
	}
	if tr.GrainLoc(ch) != tr.Loops[0].Loc || tr.GrainCounters(ch) != c.Counters {
		t.Errorf("chunk loc %v, want its loop's %v", tr.GrainLoc(ch), tr.Loops[0].Loc)
	}
}

func TestGrainsByParentAndLoc(t *testing.T) {
	tr := makeTestTrace()
	nums := make([]int32, tr.NumGrains())
	for i := range nums {
		nums[i] = int32(len(nums) - 1 - i) // any order: members are positions in it
	}
	// Sets come in parent-ID order: the root's empty parent, "R", "loop:0".
	off, members := tr.SiblingSets(nums)
	var sets [][]GrainID
	for s := 0; s+1 < len(off); s++ {
		var ids []GrainID
		first := tr.GrainParent(nums[members[off[s]]])
		for _, m := range members[off[s]:off[s+1]] {
			if p := tr.GrainParent(nums[m]); p != first {
				t.Errorf("set %d mixes parents %q and %q", s, p, first)
			}
			ids = append(ids, tr.ID(nums[m]))
		}
		sets = append(sets, ids)
	}
	want := [][]GrainID{{"R"}, {"R.1", "R.0"}, {"L0@t0#1[4,8)", "L0@t0#0[0,4)"}}
	if !reflect.DeepEqual(sets, want) {
		t.Errorf("sibling sets = %q, want %q", sets, want)
	}
	work := 0
	for n := int32(0); int(n) < tr.NumGrains(); n++ {
		if tr.GrainLoc(n) == Loc("main.go", 10, "work") {
			work++
		}
	}
	if work != 2 {
		t.Errorf("loc grouping = %d, want 2", work)
	}
}

func TestKindAndScheduleStrings(t *testing.T) {
	if KindTask.String() != "task" || KindChunk.String() != "chunk" {
		t.Error("Kind strings wrong")
	}
	if ScheduleStatic.String() != "static" || ScheduleDynamic.String() != "dynamic" ||
		ScheduleGuided.String() != "guided" {
		t.Error("Schedule strings wrong")
	}
	if ScheduleKind(9).String() == "" {
		t.Error("unknown schedule should stringify")
	}
}

// TestNumberingBuiltOnceUnderConcurrency: a memoized trace is analysed by
// many goroutines at once, and whichever gets there first builds the
// numbering; all of them must see the one finished index (run under -race).
func TestNumberingBuiltOnceUnderConcurrency(t *testing.T) {
	tr := makeTestTrace()
	var wg sync.WaitGroup
	got := make([]*Numbering, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if tr.Task("R.1") == nil || tr.Lookup("L0@t0#0[0,4)") != 3 || tr.Loop(0) == nil {
				t.Error("lookup through a concurrently built index failed")
			}
			got[i] = tr.Numbering()
		}(i)
	}
	wg.Wait()
	for _, nb := range got {
		if nb != got[0] {
			t.Fatal("concurrent callers saw different numberings")
		}
	}
}

// TestNumberingResolvesReferences pins the resolved columns of the test
// trace: the root's empty parent and an unrecorded one get their own keys
// past the grains and loops, a dangling child resolves to -1.
func TestNumberingResolvesReferences(t *testing.T) {
	tr := makeTestTrace()
	tr.Tasks[2].Parent = "R.9"
	tr.Tasks[0].Boundaries[1].Joined = []GrainID{"R.0", "R.7", "R.1"}
	nb := tr.Numbering()
	if want := []int32{6, 0, 7, 5, 5}; !reflect.DeepEqual(nb.Parent, want) {
		t.Errorf("parent keys = %v, want %v", nb.Parent, want)
	}
	for key, want := range map[int32]GrainID{0: "R", 3: "L0@t0#0[0,4)", 5: "loop:0", 6: "", 7: "R.9"} {
		if got := nb.ParentID(key); got != want {
			t.Errorf("ParentID(%d) = %q, want %q", key, got, want)
		}
	}
	if nb.TaskParent(0) != -1 || nb.TaskParent(1) != 0 || nb.TaskParent(2) != -1 || nb.TaskParent(3) != -1 {
		t.Errorf("task parents = %d %d %d %d", nb.TaskParent(0), nb.TaskParent(1), nb.TaskParent(2), nb.TaskParent(3))
	}
	if want := []int32{1, -1, -1}; !reflect.DeepEqual(nb.Child, want) {
		t.Errorf("fork children = %v, want %v", nb.Child, want)
	}
	if got := nb.JoinedOf(nb.BoundOff[0] + 1); !reflect.DeepEqual(got, []int32{1, -1, 2}) {
		t.Errorf("joined = %v, want [1 -1 2]", got)
	}
	if tr.Lookup("R.9") != -1 || tr.Lookup("") != -1 || tr.Lookup("loop:0") != -1 {
		t.Error("Lookup resolved a parent key that is no grain")
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("dangling references rejected: %v", err)
	}
}
