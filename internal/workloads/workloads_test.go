package workloads

import (
	"math"
	"math/cmplx"
	"testing"

	"graingraph/internal/profile"
	"graingraph/internal/rts"
)

// runOn executes an instance and verifies its computational result.
func runOn(t *testing.T, inst Instance, cores int) *profile.Trace {
	t.Helper()
	tr := rts.Run(rts.Config{Program: inst.Name(), Cores: cores, Seed: 42}, inst.Program())
	if err := inst.Verify(); err != nil {
		t.Fatalf("%s on %d cores: %v", inst.Name(), cores, err)
	}
	return tr
}

func TestSortCorrectAcrossCores(t *testing.T) {
	for _, cores := range []int{1, 4, 16} {
		inst := NewSort(SortParams{N: 1 << 12, SeqCutoff: 256, InsertionCutoff: 16, Seed: 1})
		tr := runOn(t, inst, cores)
		if len(tr.Tasks) < 2*(1<<12)/256-5 {
			t.Errorf("sort on %d cores created %d tasks, want ~%d", cores, len(tr.Tasks), 2*(1<<12)/256)
		}
	}
}

func TestSortLowerCutoffMoreGrains(t *testing.T) {
	big := runOn(t, NewSort(SortParams{N: 1 << 12, SeqCutoff: 512, InsertionCutoff: 16, Seed: 1}), 4)
	small := runOn(t, NewSort(SortParams{N: 1 << 12, SeqCutoff: 64, InsertionCutoff: 16, Seed: 1}), 4)
	if len(small.Tasks) <= len(big.Tasks)*4 {
		t.Errorf("cutoff 64 gave %d tasks vs cutoff 512's %d; expected ~8x", len(small.Tasks), len(big.Tasks))
	}
}

func TestFibCorrect(t *testing.T) {
	inst := NewFib(FibParams{N: 20, Cutoff: 6})
	runOn(t, inst, 4)
	if inst.result != 6765 {
		t.Errorf("fib(20) = %d", inst.result)
	}
}

func TestNQueensKnownCounts(t *testing.T) {
	for _, c := range []struct{ n, want int }{{6, 4}, {8, 92}} {
		inst := NewNQueens(NQueensParams{N: c.n, Cutoff: 2})
		runOn(t, inst, 4)
		if inst.Solution != uint64(c.want) {
			t.Errorf("nqueens(%d) = %d, want %d", c.n, inst.Solution, c.want)
		}
	}
}

func TestFFTCorrectSmall(t *testing.T) {
	inst := NewFFT(FFTParams{N: 128, Cutoff: 0, Seed: 2})
	runOn(t, inst, 4)
}

// TestTwiddleMatchesExp pins that the Sincos twiddle is bit for bit the
// cmplx.Exp it replaced, for every (k, n) the FFT inputs use: n from 2 to
// LargeFFTParams' 2^20 points, k below n/2.
func TestTwiddleMatchesExp(t *testing.T) {
	for n := 2; n <= LargeFFTParams().N; n *= 2 {
		for k := 0; k < n/2; k++ {
			got := twiddle(k, n)
			want := cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
			if math.Float64bits(real(got)) != math.Float64bits(real(want)) ||
				math.Float64bits(imag(got)) != math.Float64bits(imag(want)) {
				t.Fatalf("twiddle(%d, %d) = %v, cmplx.Exp gives %v", k, n, got, want)
			}
		}
	}
}

func TestFFTCutoffReducesGrains(t *testing.T) {
	orig := runOn(t, NewFFT(FFTParams{N: 1 << 10, Cutoff: 0, Seed: 2}), 4)
	opt := runOn(t, NewFFT(FFTParams{N: 1 << 10, Cutoff: 128, Seed: 2}), 4)
	if len(opt.Tasks)*10 > len(orig.Tasks) {
		t.Errorf("cutoff kept %d of %d tasks; expected a big reduction", len(opt.Tasks), len(orig.Tasks))
	}
	// Optimized grains must have much better parallel benefit on average:
	// compare mean exec time per task.
	mean := func(tr *profile.Trace) float64 {
		var sum uint64
		for _, task := range tr.Tasks {
			sum += task.ExecTime()
		}
		return float64(sum) / float64(len(tr.Tasks))
	}
	if mean(opt) < 4*mean(orig) {
		t.Errorf("optimized mean grain %f not much larger than original %f", mean(opt), mean(orig))
	}
}

func TestStrassenCorrectBothVariants(t *testing.T) {
	for _, p := range []StrassenParams{
		{N: 64, SC: 16, HardcodedCutoffBug: true, Seed: 3},
		{N: 64, SC: 16, HardcodedCutoffBug: false, Seed: 3},
		{N: 32, SC: 8, HardcodedCutoffBug: false, Seed: 4},
	} {
		runOn(t, NewStrassen(p), 4)
	}
}

func TestStrassenHardcodedCutoffLimitsDepth(t *testing.T) {
	// With the bug, lowering SC must NOT increase the task count ("the
	// behavior contradicts the intuition that balance should improve when
	// more tasks are created").
	buggyHi := runOn(t, NewStrassen(StrassenParams{N: 128, SC: 32, HardcodedCutoffBug: true, Seed: 3}), 4)
	buggyLo := runOn(t, NewStrassen(StrassenParams{N: 128, SC: 8, HardcodedCutoffBug: true, Seed: 3}), 4)
	if len(buggyHi.Tasks) != len(buggyLo.Tasks) {
		t.Errorf("buggy Strassen task count changed with SC: %d vs %d",
			len(buggyHi.Tasks), len(buggyLo.Tasks))
	}
	fixed := runOn(t, NewStrassen(StrassenParams{N: 128, SC: 8, HardcodedCutoffBug: false, Seed: 3}), 4)
	if len(fixed.Tasks) <= 2*len(buggyLo.Tasks) {
		t.Errorf("fixed Strassen exposes %d tasks vs buggy %d; expected much more parallelism",
			len(fixed.Tasks), len(buggyLo.Tasks))
	}
}

func TestSparseLUCorrectBothVariants(t *testing.T) {
	for _, interchange := range []bool{false, true} {
		inst := NewSparseLU(SparseLUParams{NB: 5, BS: 12, LoopInterchange: interchange, Seed: 9})
		runOn(t, inst, 4)
	}
}

func TestSparseLUPhaseStructure(t *testing.T) {
	inst := NewSparseLU(SparseLUParams{NB: 5, BS: 8, Seed: 9})
	tr := runOn(t, inst, 4)
	// Tasks must come from the three expected definitions.
	locs := map[string]int{}
	for _, task := range tr.Tasks {
		locs[task.Loc.String()]++
	}
	for _, want := range []string{"sparselu.go:229(fwd)", "sparselu.go:235(bdiv)", "sparselu.go:246(bmod)"} {
		if locs[want] == 0 {
			t.Errorf("no tasks from %s; got %v", want, locs)
		}
	}
	// bmod dominates (the paper: most frequent since it feeds the larger
	// parallelism phase).
	if locs["sparselu.go:246(bmod)"] <= locs["sparselu.go:229(fwd)"] {
		t.Errorf("bmod (%d) not dominant over fwd (%d)",
			locs["sparselu.go:246(bmod)"], locs["sparselu.go:229(fwd)"])
	}
}

func TestSparseLUInterchangeReducesStalls(t *testing.T) {
	run := func(interchange bool) (uint64, uint64) {
		inst := NewSparseLU(SparseLUParams{NB: 5, BS: 32, LoopInterchange: interchange, Seed: 9})
		tr := runOn(t, inst, 8)
		var stall, compute uint64
		for _, task := range tr.Tasks {
			if task.Loc.Func == "bmod" {
				cnt := task.TotalCounters()
				stall += cnt.Stall
				compute += cnt.Compute
			}
		}
		return stall, compute
	}
	origStall, origCompute := run(false)
	optStall, optCompute := run(true)
	if origCompute != optCompute {
		t.Errorf("compute changed with interchange: %d vs %d", origCompute, optCompute)
	}
	if optStall >= origStall {
		t.Errorf("loop interchange did not reduce stalls: %d vs %d", optStall, origStall)
	}
}

func TestKdTreeCorrectBothVariants(t *testing.T) {
	for _, p := range []KdTreeParams{DefaultKdTreeParams(), FixedKdTreeParams()} {
		p.N = 100
		inst := NewKdTree(p)
		runOn(t, inst, 4)
	}
}

func TestKdTreeBugCreatesTaskPerNode(t *testing.T) {
	buggy := runOn(t, NewKdTree(DefaultKdTreeParams()), 4)
	fixed := runOn(t, NewKdTree(FixedKdTreeParams()), 4)
	// Buggy: a sweep task per tree node plus a find_neighbors task per
	// point: > 2N tasks. Fixed: bounded by the sweep cutoff.
	if len(buggy.Tasks) < 2*200 {
		t.Errorf("buggy kdtree created %d tasks, want >= 400", len(buggy.Tasks))
	}
	if len(fixed.Tasks) >= len(buggy.Tasks) {
		t.Errorf("fix did not reduce task count: %d vs %d", len(fixed.Tasks), len(buggy.Tasks))
	}
	// The bug shows as unbounded depth: max task depth ~ tree depth.
	maxDepth := func(tr *profile.Trace) int {
		d := 0
		for _, task := range tr.Tasks {
			d = max(d, int(task.Depth))
		}
		return d
	}
	if maxDepth(buggy) <= maxDepth(fixed) {
		t.Errorf("buggy depth %d not deeper than fixed %d", maxDepth(buggy), maxDepth(fixed))
	}
}

func TestFreqmineCorrect(t *testing.T) {
	inst := NewFreqmine(FreqmineParams{Items: 100, Transactions: 400, AvgLen: 6, HotItems: 2, MinSupport: 3, Seed: 17})
	runOn(t, inst, 4)
}

func TestFreqmineUnevenChunks(t *testing.T) {
	inst := NewFreqmine(FreqmineParams{Items: 300, Transactions: 1500, AvgLen: 8, HotItems: 4, MinSupport: 4, Seed: 17})
	tr := runOn(t, inst, 8)
	if len(tr.Loops) != 3 {
		t.Fatalf("loops = %d, want 3 FPGF instances", len(tr.Loops))
	}
	// Chunk durations must be heavy-tailed: max >> median.
	var durations []uint64
	for _, ck := range tr.Chunks {
		if ck.Loop == 1 { // dominant instance
			durations = append(durations, ck.Duration())
		}
	}
	if len(durations) != 300 {
		t.Fatalf("instance-2 chunks = %d, want 300", len(durations))
	}
	var max, sum uint64
	for _, d := range durations {
		if d > max {
			max = d
		}
		sum += d
	}
	mean := sum / uint64(len(durations))
	if max < 20*mean {
		t.Errorf("chunk durations not heavy-tailed: max %d vs mean %d", max, mean)
	}
}

func TestUTSCorrectAndUnbalanced(t *testing.T) {
	inst := NewUTS(UTSParams{BranchFactor: 4, ProbPercent: 22, MaxDepth: 100, Seed: 19})
	tr := runOn(t, inst, 4)
	if inst.Nodes < 10 {
		t.Fatalf("uts tree trivially small: %d nodes", inst.Nodes)
	}
	if uint64(len(tr.Tasks)) != inst.Nodes+1 { // +1 root master
		t.Errorf("tasks = %d, want one per node (%d)", len(tr.Tasks), inst.Nodes+1)
	}
}

func TestUTSCutoffReducesTasks(t *testing.T) {
	p := UTSParams{BranchFactor: 4, ProbPercent: 22, MaxDepth: 100, Seed: 19}
	orig := runOn(t, NewUTS(p), 4)
	p.Cutoff = 3
	cut := runOn(t, NewUTS(p), 4)
	if len(cut.Tasks) >= len(orig.Tasks) {
		t.Errorf("cutoff did not reduce tasks: %d vs %d", len(cut.Tasks), len(orig.Tasks))
	}
}

func TestBlackscholesCorrect(t *testing.T) {
	inst := NewBlackscholes(BlackscholesParams{N: 5000, ChunkSize: 128, Seed: 23})
	tr := runOn(t, inst, 8)
	if len(tr.Chunks) == 0 {
		t.Error("no chunks recorded")
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	mk := func() Instance { return NewSort(SortParams{N: 1 << 10, SeqCutoff: 128, InsertionCutoff: 8, Seed: 7}) }
	t1 := rts.Run(rts.Config{Program: "d", Cores: 4, Seed: 5}, mk().Program())
	t2 := rts.Run(rts.Config{Program: "d", Cores: 4, Seed: 5}, mk().Program())
	if t1.Makespan() != t2.Makespan() || len(t1.Tasks) != len(t2.Tasks) {
		t.Errorf("sort not deterministic: %d/%d cycles, %d/%d tasks",
			t1.Makespan(), t2.Makespan(), len(t1.Tasks), len(t2.Tasks))
	}
}

func TestInstanceNames(t *testing.T) {
	insts := []Instance{
		NewSort(DefaultSortParams()),
		NewFib(DefaultFibParams()),
		NewNQueens(DefaultNQueensParams()),
		NewFFT(DefaultFFTParams()),
		NewStrassen(DefaultStrassenParams()),
		NewSparseLU(DefaultSparseLUParams()),
		NewKdTree(DefaultKdTreeParams()),
		NewFreqmine(DefaultFreqmineParams()),
		NewUTS(DefaultUTSParams()),
		NewBlackscholes(DefaultBlackscholesParams()),
	}
	seen := map[string]bool{}
	for _, in := range insts {
		n := in.Name()
		if n == "" || seen[n] {
			t.Errorf("instance name %q empty or duplicate", n)
		}
		seen[n] = true
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 13 {
		t.Fatalf("registry has %d workloads, want 13: %v", len(names), names)
	}
	for _, name := range names {
		inst, err := Get(name, VariantDefault)
		if err != nil {
			t.Fatalf("Get(%s): %v", name, err)
		}
		if inst.Name() == "" {
			t.Errorf("%s instance has empty name", name)
		}
	}
	if _, err := Get("kdtree", VariantAfter); err != nil {
		t.Errorf("kdtree after variant: %v", err)
	}
	if _, err := Get("nope", VariantDefault); err == nil {
		t.Error("unknown workload did not error")
	}
	if _, err := Get("fib", Variant("weird")); err == nil {
		t.Error("unknown variant did not error")
	}
	if len(Describe()) != len(names) {
		t.Error("Describe and Names disagree")
	}
}

func TestAlignmentCorrect(t *testing.T) {
	inst := NewAlignment(AlignmentParams{Sequences: 12, MinLen: 20, MaxLen: 50, Seed: 29})
	tr := runOn(t, inst, 8)
	// One task per pair.
	if want := 12*11/2 + 1; len(tr.Tasks) != want {
		t.Errorf("tasks = %d, want %d", len(tr.Tasks), want)
	}
}

func TestAlignmentScalesLinearly(t *testing.T) {
	mk := func() *AlignmentInstance { return NewAlignment(DefaultAlignmentParams()) }
	i1 := mk()
	t1 := runOn(t, i1, 1).Makespan()
	i2 := mk()
	t8 := runOn(t, i2, 8).Makespan()
	if sp := float64(t1) / float64(t8); sp < 5 {
		t.Errorf("8-core alignment speedup = %.1f, want near-linear", sp)
	}
}

func TestFloorplanFindsOptimum(t *testing.T) {
	for _, cores := range []int{1, 4, 16} {
		inst := NewFloorplan(DefaultFloorplanParams())
		runOn(t, inst, cores)
		if inst.BestArea <= 0 {
			t.Fatalf("no placement found on %d cores", cores)
		}
	}
}

func TestFloorplanShapeDependsOnSchedule(t *testing.T) {
	// The paper: "the shape of the graph changes for different thread
	// counts" because pruning depends on when the bound improves. The
	// RESULT must not change; the task count may.
	counts := map[int]int{}
	for _, cores := range []int{1, 48} {
		inst := NewFloorplan(DefaultFloorplanParams())
		tr := runOn(t, inst, cores)
		counts[cores] = len(tr.Tasks)
	}
	if counts[1] == counts[48] {
		t.Logf("note: task counts happened to match (%d); pruning non-determinism not exercised by this instance", counts[1])
	} else {
		t.Logf("task counts differ across machine sizes as the paper describes: %v", counts)
	}
}
