package expt

import (
	"bytes"
	"encoding/xml"
	"io"
	"reflect"
	"strings"
	"testing"

	"graingraph/internal/core"
	"graingraph/internal/export"
	"graingraph/internal/ggp"
	"graingraph/internal/highlight"
	"graingraph/internal/lod"
	"graingraph/internal/metrics"
	"graingraph/internal/profile"
	"graingraph/internal/rts"
	"graingraph/internal/workloads"
)

// randomTree builds a seeded irregular task-tree program.
func randomTree(seed uint64) func(rts.Ctx) {
	return func(c rts.Ctx) {
		r := c.Alloc("data", 1<<20)
		var rec func(c rts.Ctx, d int, s uint64)
		rec = func(c rts.Ctx, d int, s uint64) {
			c.Compute(200 + s%3000)
			if s%4 == 0 {
				c.Load(r, int64(s%1000)*64, 4096)
			}
			if d == 0 {
				return
			}
			kids := int(s%4) + 1
			for i := 0; i < kids; i++ {
				c.Spawn(profile.Loc("rand.go", i, "n"), func(c rts.Ctx) {
					rec(c, d-1, s*6364136223846793005+uint64(i)+1)
				})
			}
			c.TaskWait()
			c.Compute(100)
		}
		rec(c, 4, seed)
	}
}

// Property: the whole pipeline — run, build, reduce, analyze, export —
// holds its invariants on arbitrary task trees.
func TestPipelineInvariantsOnRandomTrees(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		tr := rts.Run(rts.Config{Program: "rand", Cores: int(seed*7)%48 + 1, Seed: seed},
			randomTree(seed))
		g := core.Build(tr)
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// Reduction conserves total node weight and grain identity.
		rg := core.ReduceAll(g)
		if err := rg.Validate(); err != nil {
			t.Fatalf("seed %d reduced: %v", seed, err)
		}
		var w1, w2 uint64
		for n := core.NodeID(0); n < core.NodeID(g.NumNodes()); n++ {
			w1 += g.Weight(n)
		}
		for n := core.NodeID(0); n < core.NodeID(rg.NumNodes()); n++ {
			w2 += rg.Weight(n)
		}
		if w1 != w2 {
			t.Fatalf("seed %d: reduction changed total weight %d -> %d", seed, w1, w2)
		}
		if rg.NumNodes() >= g.NumNodes() {
			t.Fatalf("seed %d: reduction did not shrink the graph (%d -> %d)",
				seed, g.NumNodes(), rg.NumNodes())
		}

		// Critical path: at least the heaviest grain, at most the makespan.
		rep := metrics.Analyze(tr, g, nil, metrics.Options{})
		var maxExec uint64
		for num := int32(0); int(num) < tr.NumGrains(); num++ {
			maxExec = max(maxExec, tr.GrainExec(num))
		}
		if rep.CriticalPathLength < maxExec {
			t.Errorf("seed %d: critical path %d below heaviest grain %d",
				seed, rep.CriticalPathLength, maxExec)
		}
		if rep.CriticalPathLength > tr.Makespan() {
			t.Errorf("seed %d: critical path %d exceeds makespan %d",
				seed, rep.CriticalPathLength, tr.Makespan())
		}

		// Per-worker busy time is exactly the work run on that worker, under
		// both schedulers and every runtime flavour.
		for _, sc := range []rts.SchedulerKind{rts.WorkStealing, rts.CentralQueueSched} {
			for _, fl := range []rts.Flavor{rts.FlavorMIR, rts.FlavorGCC, rts.FlavorICC} {
				btr := rts.Run(rts.Config{Program: "rand", Cores: tr.Cores, Seed: seed,
					Scheduler: sc, Flavor: fl}, loopedTree(seed))
				checkWorkerBusy(t, seed, sc, fl, btr)
			}
		}

		// Layout never overlaps two nodes at the same position.
		core.Layout(rg)
		type pos struct{ x, y float64 }
		seen := map[pos]bool{}
		for n := core.NodeID(0); n < core.NodeID(rg.NumNodes()); n++ {
			x, y, _, _ := rg.Geometry(n)
			p := pos{x, y}
			if seen[p] {
				t.Fatalf("seed %d: layout collision at %+v", seed, p)
			}
			seen[p] = true
		}

		// Exports stay well-formed.
		var buf bytes.Buffer
		if err := export.GraphML(&buf, rg, nil, export.ViewStructure, nil); err != nil {
			t.Fatalf("seed %d graphml: %v", seed, err)
		}
		dec := xml.NewDecoder(bytes.NewReader(buf.Bytes()))
		for {
			if _, err := dec.Token(); err != nil {
				if err == io.EOF {
					break
				}
				t.Fatalf("seed %d: GraphML malformed: %v", seed, err)
			}
		}
	}
}

// loopedTree is randomTree followed by a dynamically scheduled loop, so a
// run records loop chunks as well as task fragments.
func loopedTree(seed uint64) func(rts.Ctx) {
	tree := randomTree(seed)
	return func(c rts.Ctx) {
		tree(c)
		c.For(profile.Loc("rand.go", 99, "loop"), 0, 64, rts.ForOpt{Schedule: profile.ScheduleDynamic, Chunk: 4},
			func(c rts.Ctx, lo, hi int) { c.Compute(uint64(hi-lo) * (300 + seed*50)) })
	}
}

// checkWorkerBusy asserts the first exact-accounting law: each worker's
// busy time equals the summed durations of the task fragments on its core
// plus the loop chunks on its thread.
func checkWorkerBusy(t *testing.T, seed uint64, sc rts.SchedulerKind, fl rts.Flavor, tr *profile.Trace) {
	t.Helper()
	if len(tr.Chunks) == 0 {
		t.Fatalf("seed %d %v %v: the run recorded no loop chunks", seed, sc, fl)
	}
	sum := make([]profile.Time, len(tr.Workers))
	for _, task := range tr.Tasks {
		for i := range task.Fragments {
			sum[task.Fragments[i].Core] += task.Fragments[i].Duration()
		}
	}
	for _, ck := range tr.Chunks {
		sum[ck.Thread] += ck.Duration()
	}
	for w := range tr.Workers {
		if tr.Workers[w].Busy != sum[w] {
			t.Errorf("seed %d %v %v: worker %d busy %d, its fragments and chunks sum to %d",
				seed, sc, fl, w, tr.Workers[w].Busy, sum[w])
		}
	}
}

// Metamorphic property: the pure compute cycles a program charges are
// machine-size invariant — only memory time and scheduling change with the
// core count.
func TestComputeConservedAcrossMachineSizes(t *testing.T) {
	total := func(cores int) uint64 {
		tr := rts.Run(rts.Config{Program: "c", Cores: cores, Seed: 9}, randomTree(123))
		var sum uint64
		for _, task := range tr.Tasks {
			sum += task.TotalCounters().Compute
		}
		return sum
	}
	c1, c8, c48 := total(1), total(8), total(48)
	if c1 != c8 || c8 != c48 {
		t.Errorf("compute cycles vary with machine size: %d / %d / %d", c1, c8, c48)
	}
}

// Metamorphic property: for every registered workload, the computational
// result verifies on 1, 7 and 48 cores, under both schedulers. giant runs
// at its smoke size, the same UTS generator at FullDepth 6: every
// benchmark run simulates and verifies it at FullDepth 8 (257 142 grains)
// on 48 cores, in the rts.run.giant8 probe (bench/probes.go).
func TestAllWorkloadsVerifyEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload × config sweep")
	}
	for _, name := range workloads.Names() {
		variant := workloads.VariantDefault
		if name == "giant" {
			variant = workloads.VariantSmoke
		}
		t.Run(name, func(t *testing.T) {
			for _, cores := range []int{1, 7, 48} {
				for _, sched := range []rts.SchedulerKind{rts.WorkStealing, rts.CentralQueueSched} {
					inst, err := workloads.Get(name, variant)
					if err != nil {
						t.Fatal(err)
					}
					rts.Run(rts.Config{Program: inst.Name(), Cores: cores,
						Scheduler: sched, Seed: 3}, inst.Program())
					if err := inst.Verify(); err != nil {
						t.Fatalf("%s on %d cores (%v): %v", name, cores, sched, err)
					}
				}
			}
		})
	}
}

// Work deviation of a compute-only program is exactly 1 at any machine
// size: only memory behaviour may deviate.
func TestWorkDeviationComputeOnlyIsOne(t *testing.T) {
	prog := func(c rts.Ctx) {
		for i := 0; i < 12; i++ {
			c.Spawn(profile.Loc("x.go", 1, "w"), func(c rts.Ctx) { c.Compute(50_000) })
		}
		c.TaskWait()
	}
	base := rts.Run(rts.Config{Program: "w", Cores: 1, Seed: 2}, prog)
	par := rts.Run(rts.Config{Program: "w", Cores: 48, Seed: 2}, prog)
	rep := metrics.Analyze(par, nil, base, metrics.Options{})
	for row, wd := range rep.WorkDev {
		if id := rep.ID(row); id != profile.RootID && wd != 1 {
			t.Errorf("grain %s: compute-only deviation = %f, want exactly 1", id, wd)
		}
	}
}

// Grain identity across machine sizes: the buggy kdtree produces the same
// grain ID multiset on 1 and 48 cores (the paper's prerequisite for
// comparing graphs and computing work deviation).
func TestKdTreeGrainIDsMachineSizeInvariant(t *testing.T) {
	ids := func(cores int) map[profile.GrainID]bool {
		inst := workloads.NewKdTree(workloads.DefaultKdTreeParams())
		tr := rts.Run(rts.Config{Program: "kd", Cores: cores, Seed: 4}, inst.Program())
		out := map[profile.GrainID]bool{}
		for _, task := range tr.Tasks {
			out[task.ID] = true
		}
		return out
	}
	a, b := ids(1), ids(48)
	if len(a) != len(b) {
		t.Fatalf("grain counts differ: %d vs %d", len(a), len(b))
	}
	for id := range a {
		if !b[id] {
			t.Fatalf("grain %s missing on 48 cores", id)
		}
	}
}

// randomTreeWithLoops is randomTree followed, in the master task, by two
// parallel for-loops under different schedules, so the trace has chunk
// grains and loop pseudo-parents as well as tasks.
func randomTreeWithLoops(seed uint64) func(rts.Ctx) {
	tree := randomTree(seed)
	return func(c rts.Ctx) {
		tree(c)
		c.For(profile.Loc("rand.go", 90, "dyn"), 0, 40+int(seed%7), rts.ForOpt{Schedule: profile.ScheduleDynamic, Chunk: 3},
			func(c rts.Ctx, lo, hi int) { c.Compute(uint64(50 * (hi - lo))) })
		c.For(profile.Loc("rand.go", 91, "static"), 0, 16, rts.ForOpt{Schedule: profile.ScheduleStatic},
			func(c rts.Ctx, lo, hi int) { c.Compute(uint64(70 * (hi - lo))) })
	}
}

// unindexedCopy copies tr record by record into a trace nothing has
// indexed: what a test that builds a trace by hand has — records, and no
// numbering or loop index yet.
func unindexedCopy(tr *profile.Trace) *profile.Trace {
	cp := &profile.Trace{
		Program: tr.Program, Cores: tr.Cores, Sockets: tr.Sockets, Scheduler: tr.Scheduler,
		Flavor: tr.Flavor, PagePolicy: tr.PagePolicy, Start: tr.Start, End: tr.End,
		Workers: append([]profile.WorkerStat(nil), tr.Workers...),
	}
	for _, t := range tr.Tasks {
		c := *t
		cp.Tasks = append(cp.Tasks, &c)
	}
	for _, l := range tr.Loops {
		c := *l
		cp.Loops = append(cp.Loops, &c)
	}
	for _, k := range tr.Chunks {
		c := *k
		cp.Chunks = append(cp.Chunks, &c)
	}
	for _, b := range tr.Bookkeeps {
		c := *b
		cp.Bookkeeps = append(cp.Bookkeeps, &c)
	}
	return cp
}

// Property: a trace's grain numbering is the record order and nothing
// else. The live trace, a by-hand copy of it, its v1 round trip and its v2
// round trip agree on every grain's number and on every resolved parent,
// child and joined number; Lookup inverts ID; and every per-grain table
// downstream has one entry per grain number (or its documented slot
// count).
func TestGrainNumberingOnRandomTrees(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		tr := rts.Run(rts.Config{Program: "rand", Cores: int(seed*7)%48 + 1, Seed: seed},
			randomTreeWithLoops(seed))
		if len(tr.Chunks) == 0 || len(tr.Loops) != 2 {
			t.Fatalf("seed %d: %d chunks in %d loops, want a loop-bearing trace", seed, len(tr.Chunks), len(tr.Loops))
		}
		g := core.Build(tr)

		var v1 bytes.Buffer
		if err := ggp.WriteTrace(&v1, tr); err != nil {
			t.Fatal(err)
		}
		v2, err := ggp.EncodeV2(tr, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		dec1, err := ggp.Decode(v1.Bytes(), nil, nil)
		if err != nil {
			t.Fatalf("seed %d: v1: %v", seed, err)
		}
		dec2, err := ggp.Decode(v2, nil, nil)
		if err != nil {
			t.Fatalf("seed %d: v2: %v", seed, err)
		}

		nb := tr.Numbering()
		if nb.NumGrains() != tr.NumGrains() || len(nb.IDs) != tr.NumGrains() || len(nb.Parent) != tr.NumGrains() {
			t.Fatalf("seed %d: numbering covers %d/%d/%d grains, trace has %d",
				seed, nb.NumGrains(), len(nb.IDs), len(nb.Parent), tr.NumGrains())
		}
		for n := int32(0); int(n) < tr.NumGrains(); n++ {
			if got := tr.Lookup(tr.ID(n)); got != n {
				t.Fatalf("seed %d: Lookup(ID(%d)) = %d", seed, n, got)
			}
		}
		for i, task := range tr.Tasks {
			if tr.ID(int32(i)) != task.ID {
				t.Fatalf("seed %d: task %d is numbered as %q, is %q", seed, i, tr.ID(int32(i)), task.ID)
			}
			if p := task.Parent; (p < 0) != (i == 0) || int(p) >= i || (p >= 0 && !strings.HasPrefix(string(task.ID), string(tr.ID(p))+".")) {
				t.Fatalf("seed %d: task %q has parent %d", seed, task.ID, p)
			}
			for _, b := range task.Boundaries {
				if b.Kind == profile.BoundaryFork && tr.Tasks[b.Child].Parent != int32(i) {
					t.Fatalf("seed %d: %q forks %d, spawned by %d", seed, task.ID, b.Child, tr.Tasks[b.Child].Parent)
				}
				for _, j := range b.Joined {
					if tr.Tasks[j].Parent != int32(i) {
						t.Fatalf("seed %d: %q joins %d, spawned by %d", seed, task.ID, j, tr.Tasks[j].Parent)
					}
				}
			}
		}
		for name, other := range map[string]*profile.Trace{
			"by-hand copy": unindexedCopy(tr), "v1 round trip": dec1.Trace, "v2 round trip": dec2.Trace,
		} {
			onb := other.Numbering()
			for _, col := range []struct {
				what      string
				got, want any
			}{
				{"ids", onb.IDs, nb.IDs}, {"parents", onb.Parent, nb.Parent}, {"chunk loops", onb.ChunkLoop, nb.ChunkLoop},
			} {
				if !reflect.DeepEqual(col.got, col.want) {
					t.Errorf("seed %d: %s of the %s differ from the live trace's", seed, col.what, name)
				}
			}
			for key := int32(0); key <= nb.NoParent(); key++ {
				if onb.NoParent() != nb.NoParent() || onb.ParentID(key) != nb.ParentID(key) {
					t.Errorf("seed %d: parent key %d of the %s names another parent", seed, key, name)
					break
				}
			}
			for i := range tr.Tasks {
				a, b := other.Tasks[i], tr.Tasks[i]
				if a.Parent != b.Parent || !reflect.DeepEqual(a.Boundaries, b.Boundaries) {
					t.Errorf("seed %d: task %d of the %s references other tasks than the live trace's", seed, i, name)
					break
				}
			}
		}

		// Downstream tables: one entry per grain number.
		n := tr.NumGrains()
		for name, gg := range map[string]*core.Graph{"built": g, "built from the v2 round trip": core.Build(dec2.Trace)} {
			if len(gg.FirstNode) != n || len(gg.LastNode) != n || gg.NumGrainNums() != n {
				t.Errorf("seed %d: %s graph entry/exit tables cover %d/%d of %d grains (number space %d)",
					seed, name, len(gg.FirstNode), len(gg.LastNode), n, gg.NumGrainNums())
			}
			if !reflect.DeepEqual(gg.FirstNode, g.FirstNode) || !reflect.DeepEqual(gg.LastNode, g.LastNode) {
				t.Errorf("seed %d: %s graph entry/exit tables differ from the built graph's", seed, name)
			}
		}
		rep := metrics.Analyze(tr, g, nil, metrics.Options{})
		a := highlight.EvaluateWith(rep, highlight.Defaults(tr.Cores, 12), nil)
		// The report is one table: every column has a row per grain, Num
		// lists the grain numbers in (start, ID) order, and RowIndex — as
		// the assessment's Row and Get — inverts it.
		for name, rows := range map[string]int{
			"Num": len(rep.Num), "Exec": len(rep.Exec), "Benefit": len(rep.Benefit),
			"WorkDev": len(rep.WorkDev), "Parallelism": len(rep.Parallelism),
			"Scatter": len(rep.Scatter), "Util": len(rep.Util), "Stall": len(rep.Stall),
			"Mask": len(a.Mask),
		} {
			if rows != n {
				t.Fatalf("seed %d: column %s has %d rows for %d grains", seed, name, rows, n)
			}
		}
		for row := 1; row < n; row++ {
			prev, cur := rep.Num[row-1], rep.Num[row]
			ps, _ := tr.GrainSpan(prev)
			cs, _ := tr.GrainSpan(cur)
			if ps > cs || (ps == cs && tr.ID(prev) >= tr.ID(cur)) {
				t.Fatalf("seed %d: rows %d and %d (grains %d, %d) are not in (start, ID) order", seed, row-1, row, prev, cur)
			}
		}
		for num := int32(0); int(num) < n; num++ {
			row := rep.RowIndex(num)
			if row < 0 || rep.Num[row] != num || rep.ID(row) != tr.ID(num) {
				t.Fatalf("seed %d: metric row of grain %d is row %d", seed, num, row)
			}
			if a.Row(num) != row || a.Get(tr.ID(num)) != row {
				t.Fatalf("seed %d: assessment row of grain %d is not its metric row %d", seed, num, row)
			}
			if rep.Exec[row] != int64(tr.GrainExec(num)) {
				t.Fatalf("seed %d: exec of row %d is not grain %d's", seed, row, num)
			}
		}
		own := g.Owners()
		if len(own.Of) != g.NumNodes() || len(own.Depth) != len(own.Grain) || len(own.Parent) != len(own.Grain) {
			t.Errorf("seed %d: owner table covers %d nodes, %d/%d/%d slots", seed, len(own.Of), len(own.Grain), len(own.Depth), len(own.Parent))
		}
		for si, num := range own.Grain {
			if own.Slot(num) != int32(si) {
				t.Errorf("seed %d: slot %d owns grain %d, whose slot is %d", seed, si, num, own.Slot(num))
			}
		}
		if n := lod.Build(g, a).Table().NumRows(); n != len(own.Grain) || n != len(tr.Tasks) {
			t.Errorf("seed %d: lod index has %d slots, owner table %d, trace %d tasks", seed, n, len(own.Grain), len(tr.Tasks))
		}
	}
}
