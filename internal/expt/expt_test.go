package expt

import (
	"bytes"
	"strings"
	"testing"

	"graingraph/internal/rts"
	"graingraph/internal/workloads"
)

func TestRunVerifiesAndAnalyzes(t *testing.T) {
	res, err := Run(workloads.NewFib(workloads.FibParams{N: 18, Cutoff: 5}), Config{Cores: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Graph == nil || res.Report == nil || res.Assessment == nil {
		t.Fatal("incomplete result")
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatalf("graph invalid: %v", err)
	}
}

func TestSpeedupSanity(t *testing.T) {
	mk := func() workloads.Instance { return workloads.NewFib(workloads.FibParams{N: 22, Cutoff: 7}) }
	t1, err := Makespan(mk(), Config{Cores: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t8, err := Makespan(mk(), Config{Cores: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp := float64(t1) / float64(t8)
	if sp < 2 || sp > 8 {
		t.Errorf("fib 8-core speedup = %.2f, want within (2,8]", sp)
	}
}

func TestFigure2Shape(t *testing.T) {
	res, err := Figure2(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The broken cutoff creates a task per node (+ a search task per point);
	// the fix bounds the graph: paper's Figure 2 story.
	if res.BuggyGrains < 4*res.FixedGrains {
		t.Errorf("buggy grains %d not >> fixed %d", res.BuggyGrains, res.FixedGrains)
	}
	if res.BuggyDepth <= res.FixedDepth {
		t.Errorf("buggy depth %d not deeper than fixed %d", res.BuggyDepth, res.FixedDepth)
	}
	if res.BuggyGrains < 300 || res.BuggyGrains > 1500 {
		t.Errorf("buggy grains = %d, want paper's order (~740)", res.BuggyGrains)
	}
}

func TestFigure4Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := Figure4(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.LoadImbalance <= 1 {
		t.Errorf("timeline shows no imbalance: %.2f", res.LoadImbalance)
	}
	if res.LowIPAffected <= 0.05 {
		t.Errorf("grain graph flags only %.1f%% low-IP grains", 100*res.LowIPAffected)
	}
	if !strings.Contains(buf.String(), "load imbalance") {
		t.Error("render missing")
	}
}

func TestSortPageTableShape(t *testing.T) {
	replaySuite(t)
	res, err := SortPageTable(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin page distribution reduces work inflation (paper: 68.5% →
	// 37.1%) and poor utilization (56.1% → 30.1%).
	if res.InflationAfter >= res.InflationBefore {
		t.Errorf("inflation did not drop: %.1f%% -> %.1f%%",
			100*res.InflationBefore, 100*res.InflationAfter)
	}
	if res.InflationBefore < 0.25 {
		t.Errorf("before-inflation %.1f%% too low to be 'widespread'", 100*res.InflationBefore)
	}
	if res.UtilizationAfter > res.UtilizationBefore {
		t.Errorf("poor MHU increased: %.1f%% -> %.1f%%",
			100*res.UtilizationBefore, 100*res.UtilizationAfter)
	}
}

func TestFigure6Shape(t *testing.T) {
	res, err := Figure6(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.InflationAfter >= res.InflationBefore {
		t.Errorf("loop interchange did not reduce inflation: %.1f%% -> %.1f%%",
			100*res.InflationBefore, 100*res.InflationAfter)
	}
	if !strings.Contains(res.CulpritDef, "bmod") {
		t.Errorf("culprit = %q, want bmod (paper pinpoints sparselu.c:246)", res.CulpritDef)
	}
	// bmod grains dominate by creation count.
	if res.TasksPerDef["sparselu.go:246(bmod)"] <= res.TasksPerDef["sparselu.go:229(fwd)"] {
		t.Error("bmod not the most frequent definition")
	}
}

func TestFigure7And8Shape(t *testing.T) {
	replaySuite(t)
	f7, err := Figure7(nil)
	if err != nil {
		t.Fatal(err)
	}
	if f7.BeforeLowPB < 0.5 {
		t.Errorf("original FFT low-PB fraction %.1f%%, want most grains", 100*f7.BeforeLowPB)
	}
	if f7.AfterLowPB > 0.2 {
		t.Errorf("optimized FFT still has %.1f%% low-PB grains", 100*f7.AfterLowPB)
	}
	if f7.AfterGrains >= f7.BeforeGrains/10 {
		t.Errorf("cutoffs kept %d of %d grains", f7.AfterGrains, f7.BeforeGrains)
	}
	// The heaviest definition is the fft_aux spawn site (paper: fft.c:4680).
	if len(f7.PerDefBefore) == 0 || !strings.Contains(f7.PerDefBefore[0].Loc.String(), "fft_aux") {
		t.Error("heaviest definition is not fft_aux")
	}

	f8, err := Figure8(nil)
	if err != nil {
		t.Fatal(err)
	}
	if f8.Grains < 3000 || f8.Grains > 8000 {
		t.Errorf("figure 8 grains = %d, want paper's order (4591)", f8.Grains)
	}
	if f8.PoorMHU < 0.4 {
		t.Errorf("poor MHU %.1f%%, want widespread", 100*f8.PoorMHU)
	}
}

func TestFigure9Table1Shape(t *testing.T) {
	res, err := Figure9Table1(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks != 1292 {
		t.Errorf("dominant FPGF chunks = %d, want 1292", res.Chunks)
	}
	if res.LoadBalance48 < 10 {
		t.Errorf("48-core load balance = %.1f, want >> 1 (paper 35.5)", res.LoadBalance48)
	}
	if res.MinCores < 5 || res.MinCores > 10 {
		t.Errorf("bin-packed cores = %d, want ~7", res.MinCores)
	}
	if res.LoadBalanceMin > 1.5 {
		t.Errorf("min-core load balance = %.2f, want ~1 (paper 1.06)", res.LoadBalanceMin)
	}
	if res.LowPB < 0.5 {
		t.Errorf("low-PB fraction %.1f%%, want most grains small", 100*res.LowPB)
	}
	for _, row := range res.Table1 {
		if row.Speedup < 4 || row.Speedup > 12 {
			t.Errorf("%v speedup = %.2f, want ~6.6-7.2", row.Flavor, row.Speedup)
		}
		// 7-core time within 1.5x of 48-core time ("7 cores are sufficient
		// to maintain performance").
		if float64(row.ExecMinCores) > 1.5*float64(row.Exec48Cycles) {
			t.Errorf("%v min-core exec %d not close to 48-core %d",
				row.Flavor, row.ExecMinCores, row.Exec48Cycles)
		}
	}
}

func TestFigure11Shape(t *testing.T) {
	res, err := Figure11(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.BuggyGrainsSCHigh != res.BuggyGrainsSCLow {
		t.Errorf("buggy grain count varies with SC: %d vs %d (hard-coded cutoff should dominate)",
			res.BuggyGrainsSCHigh, res.BuggyGrainsSCLow)
	}
	if res.FixedGrains < 4*res.BuggyGrainsSCLow {
		t.Errorf("fix exposes %d grains vs buggy %d; want much more", res.FixedGrains, res.BuggyGrainsSCLow)
	}
	if res.ScatterCQ <= res.ScatterWS {
		t.Errorf("central queue scatter %.1f%% not above work stealing %.1f%%",
			100*res.ScatterCQ, 100*res.ScatterWS)
	}
	if res.SpeedupCQ >= res.SpeedupWS {
		t.Errorf("central queue speedup %.1f not below work stealing %.1f",
			res.SpeedupCQ, res.SpeedupWS)
	}
}

func TestOtherBenchmarksShape(t *testing.T) {
	res, err := OtherBenchmarks(nil)
	if err != nil {
		t.Fatal(err)
	}
	bs := res.Get("Blackscholes")
	if bs == nil || bs.PoorMHU < 0.5 {
		t.Errorf("Blackscholes poor MHU = %+v, want > 65%% of chunks", bs)
	}
	nq := res.Get("NQueens")
	if nq == nil || nq.Speedup < 20 {
		t.Errorf("NQueens speedup = %+v, want near-linear", nq)
	}
	fib := res.Get("Fibonacci")
	if fib == nil || fib.LowPB < 0.2 {
		t.Errorf("Fibonacci low PB = %+v, want flagged problems", fib)
	}
	uts := res.Get("UTS")
	if uts == nil || uts.LowPB < 0.8 {
		t.Errorf("UTS low PB = %+v, want poor parallel benefit for most grains", uts)
	}
	algn := res.Get("358.botsalgn")
	if algn == nil || algn.Speedup < 30 || algn.LowPB > 0.1 || algn.PoorMHU > 0.1 {
		t.Errorf("358.botsalgn = %+v, want linear scaling with clean metrics", algn)
	}
	fp := res.Get("Floorplan")
	if fp == nil || fp.Speedup < 5 {
		t.Errorf("Floorplan = %+v, want real scaling", fp)
	}
}

func TestFigure1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 1 sweep is expensive")
	}
	replaySuite(t)
	res, err := Figure1(nil, 48)
	if err != nil {
		t.Fatal(err)
	}
	for _, program := range []string{"376.kdtree", "Sort", "359.botsspar", "FFT", "Strassen"} {
		before := res.Get(program, "before", rts.FlavorMIR)
		after := res.Get(program, "after", rts.FlavorMIR)
		if before <= 0 || after <= 0 {
			t.Fatalf("%s rows missing: %f %f", program, before, after)
		}
		if after <= before {
			t.Errorf("%s: optimization did not improve speedup: %.1f -> %.1f",
				program, before, after)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 5 lowered-cutoff run is expensive")
	}
	replaySuite(t)
	res, err := Figure5(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.LoweredGrains < 10*res.TunedGrains {
		t.Errorf("lowered cutoffs: %d grains vs tuned %d; want explosion", res.LoweredGrains, res.TunedGrains)
	}
	if res.LoweredLowPB < 0.3 {
		t.Errorf("lowered low PB = %.1f%%, want ~48%% (paper)", 100*res.LoweredLowPB)
	}
	if res.TunedLowIP < 0.1 {
		t.Errorf("tuned low IP = %.1f%%, want a visible fraction", 100*res.TunedLowIP)
	}
	// Lowering cutoffs must not be a performance win (paper: "does not
	// improve performance").
	if float64(res.LoweredMakespan) < 0.9*float64(res.TunedMakespan) {
		t.Errorf("lowered cutoffs won: %d vs %d", res.LoweredMakespan, res.TunedMakespan)
	}
}
