package highlight

import (
	"math"
	"strings"
	"testing"

	"graingraph/internal/metrics"
	"graingraph/internal/profile"
	"graingraph/internal/query"
	"graingraph/internal/rts"
)

func loc(line int, fn string) profile.SrcLoc { return profile.Loc("test.go", line, fn) }

func analyzed(cores int, prog func(rts.Ctx)) *metrics.Report {
	tr := rts.Run(rts.Config{Program: "h", Cores: cores, Seed: 1}, prog)
	return metrics.Analyze(tr, nil, nil, metrics.Options{})
}

func evaluate(rep *metrics.Report, th Thresholds) *Assessment { return EvaluateWith(rep, th, nil) }

// has reports whether the grain with the given ID carries problem p.
func has(a *Assessment, id profile.GrainID, p Problem) bool { return a.Mask[a.Get(id)]&p != 0 }

// handReport is a report put together by hand: one task grain per ID, each
// with benign metrics until the caller sets them.
func handReport(ids ...profile.GrainID) *metrics.Report {
	n := len(ids)
	tr := &profile.Trace{}
	rep := &metrics.Report{
		Trace: tr, Num: make([]int32, n), Exec: make([]int64, n),
		Benefit: make([]float64, n), WorkDev: make([]float64, n),
		Parallelism: make([]int64, n), Scatter: make([]int64, n), Util: make([]float64, n),
		Stall: make([]int64, n),
	}
	for i, id := range ids {
		tr.Tasks = append(tr.Tasks, &profile.TaskRecord{ID: id})
		rep.Num[i] = int32(i)
		rep.Benefit[i] = 10
		rep.Parallelism[i] = 100
	}
	return rep
}

func TestDefaults(t *testing.T) {
	th := Defaults(48, 12)
	if th.ParallelBenefitMin != 1 || th.WorkDeviationMax != 2 ||
		th.ParallelismMin != 48 || th.ScatterMax != 12 ||
		th.UtilizationMin != 2 || th.LoadBalanceMax != 1 {
		t.Errorf("defaults = %+v", th)
	}
}

func TestLowParallelBenefitFlagged(t *testing.T) {
	rep := analyzed(2, func(c rts.Ctx) {
		c.Spawn(loc(1, "tiny"), func(c rts.Ctx) { c.Compute(10) })
		c.Spawn(loc(2, "big"), func(c rts.Ctx) { c.Compute(1_000_000) })
		c.TaskWait()
	})
	a := evaluate(rep, Defaults(2, 12))
	if !has(a, "R.0", LowParallelBenefit) {
		t.Error("tiny grain not flagged for low parallel benefit")
	}
	if has(a, "R.1", LowParallelBenefit) {
		t.Error("big grain wrongly flagged")
	}
}

func TestSeverityOrderingAndColors(t *testing.T) {
	rep := analyzed(2, func(c rts.Ctx) {
		c.Spawn(loc(1, "worst"), func(c rts.Ctx) { c.Compute(1) })
		c.Spawn(loc(2, "borderline"), func(c rts.Ctx) { c.Compute(1000) })
		c.TaskWait()
	})
	a := evaluate(rep, Defaults(2, 12))
	sw, okw := a.Severity(a.Get("R.0"), LowParallelBenefit)
	sb, okb := a.Severity(a.Get("R.1"), LowParallelBenefit)
	if !okw {
		t.Fatal("worst grain has no severity")
	}
	if okb && sb >= sw {
		t.Errorf("borderline severity %f >= worst %f", sb, sw)
	}
	// Red end for severe, yellow end for mild.
	if HeatColor(1) != "#ff0000" {
		t.Errorf("HeatColor(1) = %s", HeatColor(1))
	}
	if HeatColor(0) != "#ffff00" {
		t.Errorf("HeatColor(0) = %s", HeatColor(0))
	}
	if !strings.HasPrefix(HeatColor(0.5), "#ff") {
		t.Errorf("HeatColor(0.5) = %s", HeatColor(0.5))
	}
}

func TestSeverityFalseWhenNotFlagged(t *testing.T) {
	rep := analyzed(2, func(c rts.Ctx) {
		c.Spawn(loc(1, "big"), func(c rts.Ctx) { c.Compute(1_000_000) })
		c.TaskWait()
	})
	a := evaluate(rep, Defaults(2, 12))
	if _, ok := a.Severity(a.Get("R.0"), LowParallelBenefit); ok {
		t.Error("severity reported for unflagged problem")
	}
}

func TestPoorUtilizationRequiresStalls(t *testing.T) {
	rep := analyzed(2, func(c rts.Ctx) {
		r := c.Alloc("d", 16<<20)
		c.Spawn(loc(1, "pure"), func(c rts.Ctx) { c.Compute(500_000) })
		c.Spawn(loc(2, "memory"), func(c rts.Ctx) {
			c.Compute(10)
			c.Load(r, 0, 8<<20)
		})
		c.TaskWait()
	})
	a := evaluate(rep, Defaults(2, 12))
	if has(a, "R.0", PoorUtilization) {
		t.Error("stall-free grain flagged for poor utilization")
	}
	if !has(a, "R.1", PoorUtilization) {
		t.Error("memory-bound grain not flagged")
	}
}

func TestLowParallelismFlagged(t *testing.T) {
	// Serial chain on 4 cores: every grain sees parallelism < 4.
	rep := analyzed(4, func(c rts.Ctx) {
		var rec func(c rts.Ctx, d int)
		rec = func(c rts.Ctx, d int) {
			c.Compute(100_000)
			if d == 0 {
				return
			}
			c.Spawn(loc(1, "s"), func(c rts.Ctx) { rec(c, d-1) })
			c.TaskWait()
		}
		rec(c, 5)
	})
	a := evaluate(rep, Defaults(4, 12))
	if got := a.Affected(LowParallelism); got < 0.9 {
		t.Errorf("low-parallelism affected fraction = %.2f, want ~1", got)
	}
}

func TestAffectedAndCountConsistent(t *testing.T) {
	rep := analyzed(2, func(c rts.Ctx) {
		for i := 0; i < 10; i++ {
			c.Spawn(loc(1, "t"), func(c rts.Ctx) { c.Compute(10) })
		}
		c.TaskWait()
	})
	a := evaluate(rep, Defaults(2, 12))
	for _, p := range AllProblems {
		want := float64(a.Count(p)) / float64(len(a.Mask))
		if got := a.Affected(p); got != want {
			t.Errorf("Affected(%v) = %f, want %f", p, got, want)
		}
	}
}

func TestSummarize(t *testing.T) {
	rep := analyzed(2, func(c rts.Ctx) {
		c.Spawn(loc(1, "t"), func(c rts.Ctx) { c.Compute(10) })
		c.TaskWait()
	})
	a := evaluate(rep, Defaults(2, 12))
	s := a.Summarize()
	if s.TotalGrains != 2 || s.Cores != 2 || s.Program != "h" {
		t.Errorf("summary header = %+v", s)
	}
	if len(s.Rows) != len(AllProblems) {
		t.Errorf("summary rows = %d", len(s.Rows))
	}
	if s.Makespan == 0 || s.CriticalLen == 0 {
		t.Error("summary missing makespan / critical path")
	}
}

func TestTopOffenders(t *testing.T) {
	rep := analyzed(2, func(c rts.Ctx) {
		c.Spawn(loc(1, "a"), func(c rts.Ctx) { c.Compute(5) })
		c.Spawn(loc(2, "b"), func(c rts.Ctx) { c.Compute(500) })
		c.Spawn(loc(3, "c"), func(c rts.Ctx) { c.Compute(900_000) })
		c.TaskWait()
	})
	a := evaluate(rep, Defaults(2, 12))
	top := a.TopOffenders(LowParallelBenefit, 10)
	if len(top) < 2 {
		t.Fatalf("offenders = %d, want >= 2", len(top))
	}
	// Worst (smallest benefit) first.
	s0, _ := a.Severity(top[0], LowParallelBenefit)
	s1, _ := a.Severity(top[1], LowParallelBenefit)
	if s0 < s1 {
		t.Error("offenders not sorted by severity")
	}
	if got := a.TopOffenders(LowParallelBenefit, 1); len(got) != 1 {
		t.Errorf("limit not applied: %d", len(got))
	}
}

func TestByDefinitionGrouping(t *testing.T) {
	rep := analyzed(2, func(c rts.Ctx) {
		for i := 0; i < 5; i++ {
			c.Spawn(loc(10, "tiny"), func(c rts.Ctx) { c.Compute(10) })
		}
		for i := 0; i < 3; i++ {
			c.Spawn(loc(20, "big"), func(c rts.Ctx) { c.Compute(400_000) })
		}
		c.TaskWait()
	})
	a := evaluate(rep, Defaults(2, 12))
	defs := a.ByDefinition(LowParallelBenefit)
	if len(defs) != 3 { // tiny, big, root
		t.Fatalf("definitions = %d, want 3", len(defs))
	}
	// Sorted by total exec: big first.
	if defs[0].Loc.Func != "big" {
		t.Errorf("heaviest definition = %s, want big", defs[0].Loc)
	}
	for _, d := range defs {
		if d.Loc.Func == "tiny" {
			if d.Grains != 5 || d.Prevalence < 0.99 {
				t.Errorf("tiny stats = %+v", d)
			}
		}
	}
}

func TestProblemString(t *testing.T) {
	if Problem(0).String() != "none" {
		t.Error("zero problem name")
	}
	if LowParallelBenefit.String() != "low-parallel-benefit" {
		t.Errorf("name = %s", LowParallelBenefit.String())
	}
	combo := LowParallelBenefit | PoorUtilization
	if !strings.Contains(combo.String(), "+") {
		t.Errorf("combo name = %s", combo.String())
	}
}

func TestRefinedThreshold(t *testing.T) {
	// The paper lowers work deviation to 1.2 for botsspar; verify the
	// threshold is honoured.
	rep := handReport("x")
	rep.WorkDev[0] = 1.5
	loose := evaluate(rep, Thresholds{WorkDeviationMax: 2, ParallelismMin: 1, ParallelBenefitMin: 1})
	tight := evaluate(rep, Thresholds{WorkDeviationMax: 1.2, ParallelismMin: 1, ParallelBenefitMin: 1})
	if loose.Mask[0]&WorkInflation != 0 {
		t.Error("1.5 deviation flagged at threshold 2")
	}
	if tight.Mask[0]&WorkInflation == 0 {
		t.Error("1.5 deviation not flagged at threshold 1.2")
	}
}

func TestUnknownScatterNotFlagged(t *testing.T) {
	// ScatterUnknown (-1) means "could not measure", not "packed" and not
	// "scattered": the highlight pass must skip it even when the threshold
	// is negative enough that a naive comparison would flag it.
	rep := handReport("u", "s")
	rep.Scatter[0] = metrics.ScatterUnknown
	rep.Scatter[1] = 30
	a := evaluate(rep, Thresholds{ScatterMax: 12, ParallelismMin: 1, ParallelBenefitMin: 1, WorkDeviationMax: 2})
	if has(a, "u", HighScatter) {
		t.Error("unknown scatter flagged as high scatter")
	}
	if !has(a, "s", HighScatter) {
		t.Error("genuinely scattered grain not flagged")
	}
}

// TestProblemPredicatesBind pins why EvaluateObs's two panics are
// unreachable: every problem's predicate parses and binds over MetricTable
// at the core counts Trace.Validate admits, from 0 to MaxInt32, and at the
// work-deviation cut-offs the experiments use.
func TestProblemPredicatesBind(t *testing.T) {
	rep := handReport("a", "b")
	tab := MetricTable(rep)
	for _, cores := range []int{0, 1, 48, math.MaxInt32} {
		for _, wdev := range []float64{2, 1.2} {
			th := Defaults(cores, 12)
			th.WorkDeviationMax = wdev
			for _, p := range AllProblems {
				q := ProblemQuery(p, th)
				e, err := query.ParseExpr(q)
				if err != nil {
					t.Fatalf("cores %d, workdev %g: %q does not parse: %v", cores, wdev, q, err)
				}
				if err := e.EvalBool(tab, nil, make([]bool, rep.Len())); err != nil {
					t.Fatalf("cores %d, workdev %g: %q does not bind: %v", cores, wdev, q, err)
				}
			}
		}
	}
}
