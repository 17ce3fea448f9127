package query

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"graingraph/internal/runpool"
)

// oracleRun executes p verb by verb the way the engine did before plans
// were late-materialized: every filter, sort and topk gathers every column
// of its result into a fresh table. It is the reference Plan.Run is checked against.
func oracleRun(p *Plan, t *Table, pool *runpool.Runner) (*Table, error) {
	for _, op := range p.ops {
		switch op := op.(type) {
		case filterOp:
			idx, err := filterFrame(frame{schema: t}, op.expr, pool)
			if err != nil {
				return nil, err
			}
			t = t.gather(idx)
		case selectOp:
			out := NewTable(t.rows)
			for _, name := range op.cols {
				c := t.Col(name)
				if c == nil {
					return nil, errf(name, "unknown column (have %s)", columnNames(t))
				}
				out.add(c)
			}
			t = out
		case sortOp:
			less, err := oracleLess(t, op.keys)
			if err != nil {
				return nil, err
			}
			t = t.gather(SortRows(t.rows, less))
		case topkOp:
			if len(op.keys) == 0 {
				idx := make([]int32, min(op.n, t.rows))
				for i := range idx {
					idx[i] = int32(i)
				}
				t = t.gather(idx)
				continue
			}
			less, err := oracleLess(t, op.keys)
			if err != nil {
				return nil, err
			}
			above := func(i, j int) bool {
				if less(i, j) {
					return true
				}
				if less(j, i) {
					return false
				}
				return i < j
			}
			t = t.gather(TopKPool(pool, t.rows, op.n, above))
		case aggOp:
			// Over a materialized table the selection is the identity, so
			// this is the aggregation as it ran before selections existed.
			f, err := op.run(frame{schema: t}, pool)
			if err != nil {
				return nil, err
			}
			t = f.schema
		default:
			panic(fmt.Sprintf("oracle: unknown verb %T", op))
		}
	}
	return t, nil
}

// oracleLess is the composite row comparator the materializing executor
// sorted and ranked with.
func oracleLess(t *Table, keys []sortKey) (func(i, j int) bool, error) {
	type cmp struct {
		c    *Column
		desc bool
	}
	cs := make([]cmp, len(keys))
	for k, key := range keys {
		c := t.Col(key.col)
		if c == nil {
			return nil, errf(key.col, "unknown column (have %s)", columnNames(t))
		}
		cs[k] = cmp{c: c, desc: key.desc}
	}
	return func(i, j int) bool {
		for _, k := range cs {
			var lt, gt bool
			switch k.c.Kind {
			case Str:
				lt, gt = k.c.S[i] < k.c.S[j], k.c.S[i] > k.c.S[j]
			case Int:
				lt, gt = k.c.I[i] < k.c.I[j], k.c.I[i] > k.c.I[j]
			default:
				lt, gt = floatLess(k.c.F[i], k.c.F[j]), floatLess(k.c.F[j], k.c.F[i])
			}
			if k.desc {
				lt, gt = gt, lt
			}
			if lt {
				return true
			}
			if gt {
				return false
			}
		}
		return false
	}, nil
}

// oracleTable is a rows-long table built for differential testing: heavy
// ties in every kind, NaNs and infinities in the float column, repeated
// string IDs.
func oracleTable(rng *rand.Rand, rows int) *Table {
	f := make([]float64, rows)
	h := make([]float64, rows)
	n := make([]int64, rows)
	w := make([]int64, rows)
	g := make([]string, rows)
	s := make([]string, rows)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.5}
	groups := []string{"alpha", "beta", "gamma"}
	for i := 0; i < rows; i++ {
		if rng.Intn(8) == 0 {
			f[i] = specials[rng.Intn(len(specials))]
		} else {
			f[i] = float64(rng.Intn(40)-20) / 4
		}
		h[i] = float64(rng.Intn(3))
		n[i] = int64(rng.Intn(5)) - 2
		w[i] = rng.Int63n(1000)
		g[i] = groups[rng.Intn(len(groups))]
		s[i] = fmt.Sprintf("R.%d.%d", rng.Intn(rows/4+1), rng.Intn(3))
	}
	return NewTable(rows).
		AddFloat("f", f).
		AddFloat("h", h).
		AddInt("n", n).
		AddInt("w", w).
		AddStr("g", g).
		AddStr("s", s)
}

// planGen draws random plans over a schema it tracks verb by verb, so most
// plans bind; now and then it names a column the plan has dropped, which
// both executors must reject with the same error.
type planGen struct {
	rng  *rand.Rand
	cols []Column // current schema: names and kinds only
	all  []string // every name ever seen, dropped ones included
}

func (pg *planGen) col(numeric bool) (Column, bool) {
	var pick []Column
	for _, c := range pg.cols {
		if !numeric || c.Kind != Str {
			pick = append(pick, c)
		}
	}
	if len(pick) == 0 || pg.rng.Intn(25) == 0 {
		name := pg.all[pg.rng.Intn(len(pg.all))]
		return Column{Name: name, Kind: Float}, false
	}
	return pick[pg.rng.Intn(len(pick))], true
}

func (pg *planGen) pred() string {
	c, _ := pg.col(false)
	var p string
	switch {
	case c.Kind == Str && pg.rng.Intn(2) == 0:
		p = fmt.Sprintf("%s != %q", c.Name, "beta")
	case c.Kind == Str:
		p = fmt.Sprintf("prefix(%s, %q)", c.Name, "R.1")
	case pg.rng.Intn(4) == 0:
		p = fmt.Sprintf("abs(%s) >= %d", c.Name, pg.rng.Intn(4))
	default:
		op := []string{"<", "<=", ">", ">=", "==", "!="}[pg.rng.Intn(6)]
		p = fmt.Sprintf("%s %s %d", c.Name, op, pg.rng.Intn(6)-2)
	}
	if pg.rng.Intn(4) == 0 {
		join := []string{"&&", "||"}[pg.rng.Intn(2)]
		return p + " " + join + " " + pg.pred()
	}
	return p
}

func (pg *planGen) sortKeys() string {
	var keys []string
	for k := 0; k <= pg.rng.Intn(2); k++ {
		c, _ := pg.col(false)
		keys = append(keys, c.Name+[]string{"", " asc", " desc"}[pg.rng.Intn(3)])
	}
	return strings.Join(keys, ", ")
}

func (pg *planGen) topk() string {
	n := []int{0, 1, 3, 10, 64, 1000}[pg.rng.Intn(6)]
	if pg.rng.Intn(2) == 0 {
		return fmt.Sprintf("topk %d", n)
	}
	c, _ := pg.col(false)
	return fmt.Sprintf("topk %d by %s%s", n, c.Name, []string{"", " asc", " desc"}[pg.rng.Intn(3)])
}

func (pg *planGen) selectVerb() string {
	perm := pg.rng.Perm(len(pg.cols))
	keep := 1 + pg.rng.Intn(len(pg.cols))
	var names []string
	var cols []Column
	for _, i := range perm[:keep] {
		names = append(names, pg.cols[i].Name)
		cols = append(cols, pg.cols[i])
	}
	pg.cols = cols
	return "select " + strings.Join(names, ",")
}

func (pg *planGen) groupAgg() string {
	var keys, calls []string
	var cols []Column
	for _, i := range pg.rng.Perm(len(pg.cols))[:pg.rng.Intn(min(3, len(pg.cols)+1))] {
		keys = append(keys, pg.cols[i].Name)
		cols = append(cols, pg.cols[i])
	}
	for k := 0; k <= pg.rng.Intn(3); k++ {
		c, ok := pg.col(true)
		fn := []string{"count", "sum", "mean", "max", "min", "quantile"}[pg.rng.Intn(6)]
		switch {
		case fn == "count":
			calls = append(calls, "count")
			cols = append(cols, Column{Name: "count", Kind: Int})
			continue
		case fn == "quantile":
			calls = append(calls, fmt.Sprintf("quantile(%s, 0.5)", c.Name))
			cols = append(cols, Column{Name: "p50_" + c.Name, Kind: c.Kind})
			continue
		case !ok:
		case fn == "mean":
			c.Kind = Float
		}
		calls = append(calls, fmt.Sprintf("%s(%s)", fn, c.Name))
		cols = append(cols, Column{Name: fn + "_" + c.Name, Kind: c.Kind})
	}
	pg.cols = cols
	for _, c := range cols {
		pg.all = append(pg.all, c.Name)
	}
	src := "agg " + strings.Join(calls, ", ")
	if len(keys) > 0 {
		src = "groupby " + strings.Join(keys, ",") + " | " + src
	}
	return src
}

// plan draws one pipeline of one to five verbs. A sort is followed by a
// topk half the time, so topk often ranks a sorted selection.
func (pg *planGen) plan(schema *Table) string {
	pg.cols = pg.cols[:0]
	pg.all = pg.all[:0]
	for _, c := range schema.Columns() {
		pg.cols = append(pg.cols, Column{Name: c.Name, Kind: c.Kind})
		pg.all = append(pg.all, c.Name)
	}
	var verbs []string
	for v := 0; v <= pg.rng.Intn(5); v++ {
		switch pg.rng.Intn(5) {
		case 0:
			verbs = append(verbs, "filter "+pg.pred())
		case 1:
			verbs = append(verbs, "sort "+pg.sortKeys())
			if pg.rng.Intn(2) == 0 {
				verbs = append(verbs, pg.topk())
			}
		case 2:
			verbs = append(verbs, pg.topk())
		case 3:
			verbs = append(verbs, pg.selectVerb())
		default:
			verbs = append(verbs, pg.groupAgg())
		}
	}
	return strings.Join(verbs, " | ")
}

// render is a table's printed bytes plus its column kinds.
func render(t *testing.T, tab *Table) string {
	t.Helper()
	var buf bytes.Buffer
	for _, c := range tab.Columns() {
		fmt.Fprintf(&buf, "%s:%s ", c.Name, c.Kind)
	}
	buf.WriteByte('\n')
	if err := WriteTable(&buf, tab); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestRunMatchesMaterializingOracle runs random plans — every verb order,
// topk with and without keys after sort, selections dropping columns a
// later verb needs — over random tables, empty ones included, at pool nil, 1 and 4,
// and requires Plan.Run to print exactly what the gather-everything
// executor prints, or to fail with exactly its error.
func TestRunMatchesMaterializingOracle(t *testing.T) {
	const plans = 600
	start := time.Now()
	rng := rand.New(rand.NewSource(45))
	pg := &planGen{rng: rng}
	pools := []*runpool.Runner{nil, runpool.New(1), runpool.New(4)}
	sizes := []int{0, 1, 2, 9, 60, 300, 9000}
	tables := make([]*Table, len(sizes))
	for i, rows := range sizes {
		tables[i] = oracleTable(rng, rows)
	}
	errs, sortTopK := 0, 0
	for i := 0; i < plans; i++ {
		// The table above topKChunkMin runs TopKPool's chunked path; it
		// is drawn less often because it dominates the run time.
		tab := tables[rng.Intn(len(tables)-1)]
		if i%8 == 0 {
			tab = tables[len(tables)-1]
		}
		src := pg.plan(tab)
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if strings.Contains(src, "sort") && strings.Contains(src, "topk") {
			sortTopK++
		}
		pool := pools[i%len(pools)]
		want, werr := oracleRun(p, tab, pool)
		got, gerr := p.Run(tab, pool)
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("plan %q over %d rows: error %v, oracle %v", src, tab.NumRows(), gerr, werr)
		}
		if werr != nil {
			errs++
			continue
		}
		if g, w := render(t, got), render(t, want); g != w {
			t.Fatalf("plan %q over %d rows:\n--- Run\n%s--- oracle\n%s", src, tab.NumRows(), g, w)
		}
	}
	if errs == 0 || errs > plans/2 || sortTopK < plans/10 {
		t.Errorf("plan mix: %d binding errors, %d with sort and topk, of %d", errs, sortTopK, plans)
	}
	t.Logf("%d plans (%d binding errors, %d with sort and topk) in %v", plans, errs, sortTopK, time.Since(start))
}

// TestPlanAllocsIndependentOfColumns pins late materialization: a
// filter | sort | topk | select plan allocates the same few bytes per row
// whether the source has 4 columns or 32, because no verb copies a column
// the result does not print.
func TestPlanAllocsIndependentOfColumns(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops scratch-pool items at random, so allocation counts vary")
	}
	const rows = 100_000
	p, err := Parse("filter c0 > 0.25 | sort c1 desc | topk 10 | select c0,c1,c2")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	bytesFor := func(cols int) float64 {
		tab := NewTable(rows)
		for c := 0; c < cols; c++ {
			v := make([]float64, rows)
			for i := range v {
				v[i] = rng.Float64()
			}
			tab.AddFloat(fmt.Sprintf("c%d", c), v)
		}
		if _, err := p.Run(tab, nil); err != nil { // warm the scratch pools
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := p.Run(tab, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / rows
	}
	narrow, wide := bytesFor(4), bytesFor(32)
	t.Logf("bytes per row: %.2f at 4 columns, %.2f at 32", narrow, wide)
	if wide > narrow+0.5 || narrow > 6 {
		t.Errorf("bytes per row: %.2f at 4 columns, %.2f at 32; want equal and at most 6", narrow, wide)
	}
}
