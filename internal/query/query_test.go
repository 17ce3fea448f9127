package query

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"graingraph/internal/runpool"
)

// randomTable builds a rows-long table with mixed-kind columns from a
// seeded generator: f (float, including negatives and repeats), n (int,
// small range so groups collide), w (int, wide range), g (string group
// label with few distinct values), s (string id, unique).
func randomTable(rng *rand.Rand, rows int) *Table {
	f := make([]float64, rows)
	n := make([]int64, rows)
	w := make([]int64, rows)
	g := make([]string, rows)
	s := make([]string, rows)
	groups := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < rows; i++ {
		f[i] = math.Round(rng.NormFloat64()*100) / 10
		n[i] = int64(rng.Intn(7)) - 3
		w[i] = rng.Int63n(1_000_000)
		g[i] = groups[rng.Intn(len(groups))]
		s[i] = fmt.Sprintf("id%04d", i)
	}
	return NewTable(rows).
		AddFloat("f", f).
		AddInt("n", n).
		AddInt("w", w).
		AddStr("g", g).
		AddStr("s", s)
}

// run compiles and executes src over t on pool, failing the test on error.
func run(t *testing.T, tab *Table, src string, pool *runpool.Runner) *Table {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	out, err := p.Run(tab, pool)
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	return out
}

// TestAggregatesAgainstBruteForce cross-checks every aggregate — global and
// grouped — against straight loops over randomized tables.
func TestAggregatesAgainstBruteForce(t *testing.T) {
	pool := runpool.New(4)
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(10_000)
		tab := randomTable(rng, rows)
		f, n, w, g := tab.Col("f").F, tab.Col("n").I, tab.Col("w").I, tab.Col("g").S

		// Global aggregates.
		out := run(t, tab, "agg count, sum(f), sum(w), mean(n), max(f), min(w), quantile(f,0.5), quantile(w,0.9)", pool)
		if out.NumRows() != 1 {
			t.Fatalf("seed %d: global agg rows = %d", seed, out.NumRows())
		}
		var sumF, sumN float64
		var sumW int64
		maxF := math.Inf(-1)
		minW := w[0]
		for i := 0; i < rows; i++ {
			sumF += f[i]
			sumN += float64(n[i])
			sumW += w[i]
			if f[i] > maxF {
				maxF = f[i]
			}
			if w[i] < minW {
				minW = w[i]
			}
		}
		sortedF := append([]float64(nil), f...)
		sort.Float64s(sortedF)
		sortedW := append([]int64(nil), w...)
		sort.Slice(sortedW, func(a, b int) bool { return sortedW[a] < sortedW[b] })
		nearest := func(nn int, q float64) int {
			r := int(math.Ceil(float64(nn) * q))
			if r < 1 {
				r = 1
			}
			return r - 1
		}
		checkF := func(col string, want float64) {
			c := out.Col(col)
			if c == nil || c.Kind != Float {
				t.Fatalf("seed %d: column %s missing or not float", seed, col)
			}
			if got := c.F[0]; got != want && math.Abs(got-want) > 1e-9*math.Abs(want) {
				t.Errorf("seed %d: %s = %v, brute force %v", seed, col, got, want)
			}
		}
		checkI := func(col string, want int64) {
			c := out.Col(col)
			if c == nil || c.Kind != Int {
				t.Fatalf("seed %d: column %s missing or not int", seed, col)
			}
			if got := c.I[0]; got != want {
				t.Errorf("seed %d: %s = %d, brute force %d", seed, col, got, want)
			}
		}
		checkI("count", int64(rows))
		checkF("sum_f", sumF)
		checkI("sum_w", sumW)
		checkF("mean_n", sumN/float64(rows))
		checkF("max_f", maxF)
		checkI("min_w", minW)
		checkF("p50_f", sortedF[nearest(rows, 0.5)])
		checkI("p90_w", sortedW[nearest(rows, 0.9)])

		// Grouped aggregates: first-appearance group order, per-group sums.
		out = run(t, tab, "groupby g | agg count, sum(w), mean(f), max(n), quantile(w,0.25)", pool)
		type acc struct {
			count int64
			sumW  int64
			sumF  float64
			maxN  int64
			ws    []int64
		}
		order := []string{}
		byKey := map[string]*acc{}
		for i := 0; i < rows; i++ {
			a := byKey[g[i]]
			if a == nil {
				a = &acc{maxN: math.MinInt64}
				byKey[g[i]] = a
				order = append(order, g[i])
			}
			a.count++
			a.sumW += w[i]
			a.sumF += f[i]
			if n[i] > a.maxN {
				a.maxN = n[i]
			}
			a.ws = append(a.ws, w[i])
		}
		if out.NumRows() != len(order) {
			t.Fatalf("seed %d: grouped rows = %d, want %d", seed, out.NumRows(), len(order))
		}
		for gi, key := range order {
			a := byKey[key]
			if got := out.Col("g").S[gi]; got != key {
				t.Fatalf("seed %d: group %d = %q, want %q (first-appearance order)", seed, gi, got, key)
			}
			if got := out.Col("count").I[gi]; got != a.count {
				t.Errorf("seed %d: group %s count = %d, want %d", seed, key, got, a.count)
			}
			if got := out.Col("sum_w").I[gi]; got != a.sumW {
				t.Errorf("seed %d: group %s sum_w = %d, want %d", seed, key, got, a.sumW)
			}
			want := a.sumF / float64(a.count)
			if got := out.Col("mean_f").F[gi]; math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Errorf("seed %d: group %s mean_f = %v, want %v", seed, key, got, want)
			}
			if got := out.Col("max_n").I[gi]; got != a.maxN {
				t.Errorf("seed %d: group %s max_n = %d, want %d", seed, key, got, a.maxN)
			}
			sort.Slice(a.ws, func(x, y int) bool { return a.ws[x] < a.ws[y] })
			if got, want := out.Col("p25_w").I[gi], a.ws[nearest(len(a.ws), 0.25)]; got != want {
				t.Errorf("seed %d: group %s p25_w = %d, want %d", seed, key, got, want)
			}
		}
	}
}

// TestFilterSortTopKAgainstBruteForce cross-checks the row verbs against
// direct evaluation.
func TestFilterSortTopKAgainstBruteForce(t *testing.T) {
	pool := runpool.New(4)
	rng := rand.New(rand.NewSource(42))
	rows := 9000 // above topKChunkMin so TopKPool's parallel path runs
	tab := randomTable(rng, rows)
	f, n, s := tab.Col("f").F, tab.Col("n").I, tab.Col("s").S

	out := run(t, tab, `filter f > 0 && n != 0 || prefix(s, "id000")`, pool)
	var want []int
	for i := 0; i < rows; i++ {
		if (f[i] > 0 && n[i] != 0) || strings.HasPrefix(s[i], "id000") {
			want = append(want, i)
		}
	}
	if out.NumRows() != len(want) {
		t.Fatalf("filter rows = %d, want %d", out.NumRows(), len(want))
	}
	for i, r := range want {
		if out.Col("s").S[i] != s[r] {
			t.Fatalf("filter row %d = %q, want %q (ascending row order)", i, out.Col("s").S[i], s[r])
		}
	}

	// sort: composite keys, stability on equal keys.
	out = run(t, tab, "sort n asc, f desc", pool)
	idx := make([]int, rows)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if n[idx[a]] != n[idx[b]] {
			return n[idx[a]] < n[idx[b]]
		}
		return f[idx[a]] > f[idx[b]]
	})
	for i := 0; i < rows; i++ {
		if out.Col("s").S[i] != s[idx[i]] {
			t.Fatalf("sort row %d = %q, want %q", i, out.Col("s").S[i], s[idx[i]])
		}
	}

	// topk by w desc equals full sort + truncate under the total order
	// (w desc, row asc).
	const k = 37
	out = run(t, tab, fmt.Sprintf("topk %d by w", k), pool)
	w := tab.Col("w").I
	widx := make([]int, rows)
	for i := range widx {
		widx[i] = i
	}
	sort.SliceStable(widx, func(a, b int) bool { return w[widx[a]] > w[widx[b]] })
	if out.NumRows() != k {
		t.Fatalf("topk rows = %d, want %d", out.NumRows(), k)
	}
	for i := 0; i < k; i++ {
		if out.Col("s").S[i] != s[widx[i]] {
			t.Fatalf("topk row %d = %q, want %q", i, out.Col("s").S[i], s[widx[i]])
		}
	}
}

// TestPipelineByteIdenticalAcrossPools renders the full verb set at pool
// sizes 1 and 8 and requires byte-identical tables.
func TestPipelineByteIdenticalAcrossPools(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := randomTable(rng, 20_000)
	srcs := []string{
		"filter f > -5 | groupby g, n | agg count, sum(w), mean(f), min(w), max(f), quantile(w,0.5) | sort sum_w desc, g asc | select g,n,count,sum_w,mean_f,p50_w",
		"filter n >= 0 | sort f desc, s asc | topk 25 by w asc | select s,w,f",
		"agg count, quantile(f,0), quantile(f,1), mean(w)",
		`filter prefix(s, "id0") && !(n == 0) | topk 100 | groupby g | agg count, max(w)`,
	}
	p1 := runpool.New(1)
	p8 := runpool.New(8)
	for _, src := range srcs {
		var b1, b8 bytes.Buffer
		if err := WriteTable(&b1, run(t, tab, src, p1)); err != nil {
			t.Fatal(err)
		}
		if err := WriteTable(&b8, run(t, tab, src, p8)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b8.Bytes()) {
			t.Errorf("query %q: output differs between pool sizes 1 and 8", src)
		}
	}
}

// TestParseErrors verifies malformed queries fail with *Error (the usage
// classification the CLI and server map to exit 2 / HTTP 400) and never
// reach execution.
func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"frobnicate x > 1",
		"filter",
		"filter f >",
		"filter f ~ 1",
		"groupby g", // groupby without agg
		"groupby g | sort f",
		"agg bogus(f)",
		"agg quantile(f)",
		"agg quantile(f, 2)",
		"sort",
		"sort f sideways",
		"topk",
		"topk -3",
		"topk 5 by",
		"select",
		"select id,id", // a repeated column could not be added twice
		"groupby depth,depth | agg count",
		"from nowhere | filter f > 0",
		"filter f > 0 | from tasks",
	}
	for _, src := range bad {
		p, err := Parse(src)
		if err == nil {
			t.Errorf("Parse(%q): expected error, got plan %v", src, p)
			continue
		}
		if _, ok := err.(*Error); !ok {
			t.Errorf("Parse(%q): error type %T, want *Error", src, err)
		}
	}

	// Binding failures surface at Run time, also as *Error.
	tab := randomTable(rand.New(rand.NewSource(1)), 10)
	for _, src := range []string{
		"filter nosuch > 1",
		"sort nosuch",
		"agg sum(nosuch)",
		"agg sum(s)", // string column in numeric aggregate
		"select nosuch",
		"filter s + 1 > 0",  // string in arithmetic
		`filter s < "a"`,    // strings support only == and !=
		"filter f > 0 && n", // non-predicate operand
	} {
		p, err := Parse(src)
		if err != nil {
			if _, ok := err.(*Error); !ok {
				t.Errorf("Parse(%q): error type %T, want *Error", src, err)
			}
			continue
		}
		if _, err := p.Run(tab, nil); err == nil {
			t.Errorf("Run(%q): expected binding error", src)
		} else if _, ok := err.(*Error); !ok {
			t.Errorf("Run(%q): error type %T, want *Error", src, err)
		}
	}
}

// TestTopKEqualsSortTruncate property-checks TopK and TopKPool against
// sort+truncate under a randomized total order.
// TestTopKComparisonsBounded: rows that arrive in ascending rank order, each
// outranking every row before it, are the worst case of a sorted-insertion
// selection (O(n·k)); the selection must stay within O(n log k) calls of
// above.
func TestTopKComparisonsBounded(t *testing.T) {
	const n = 30_000
	k := n / 2
	calls := 0
	above := func(i, j int) bool { calls++; return i > j }
	top := TopK(n, k, above)
	if len(top) != k || top[0] != n-1 || top[k-1] != int32(n-k) {
		t.Fatalf("TopK = %d rows from %d to %d, want %d rows from %d to %d", len(top), top[0], top[len(top)-1], k, n-1, n-k)
	}
	if bound := 3 * float64(n) * math.Log2(float64(k+1)); float64(calls) > bound {
		t.Errorf("TopK(%d, %d) called above %d times, want at most %.0f (3·n·log₂(k+1))", n, k, calls, bound)
	}
}

func TestTopKEqualsSortTruncate(t *testing.T) {
	pool := runpool.New(8)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30_000)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(50)) // heavy ties: row index must break them
		}
		above := func(i, j int) bool {
			if vals[i] != vals[j] {
				return vals[i] > vals[j]
			}
			return i < j
		}
		for _, k := range []int{0, 1, 7, 100, n, n + 10} {
			want := SortRows(n, func(i, j int) bool { return above(i, j) })
			lim := k
			if lim > n {
				lim = n
			}
			if lim < 0 {
				lim = 0
			}
			want = want[:lim]
			got := TopK(n, k, above)
			gotPool := TopKPool(pool, n, k, above)
			if len(got) != len(want) || len(gotPool) != len(want) {
				t.Fatalf("seed %d n %d k %d: len got %d pool %d want %d", seed, n, k, len(got), len(gotPool), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d n %d k %d: TopK[%d] = %d, sort+truncate %d", seed, n, k, i, got[i], want[i])
				}
				if gotPool[i] != want[i] {
					t.Fatalf("seed %d n %d k %d: TopKPool[%d] = %d, sort+truncate %d", seed, n, k, i, gotPool[i], want[i])
				}
			}
		}
	}
}

// TestExprSemantics spot-checks operators the refactored callers rely on.
func TestExprSemantics(t *testing.T) {
	tab := NewTable(4).
		AddFloat("f", []float64{1.5, -2, 0, math.Inf(1)}).
		AddInt("n", []int64{-1, 0, 3, 7}).
		AddStr("s", []string{"R", "R.0", "R.0.1", "R.1"})
	cases := []struct {
		src  string
		want []bool
	}{
		{"f > 0", []bool{true, false, false, true}},
		{"abs(f) >= 1.5", []bool{true, true, false, true}},
		{"-n < 0", []bool{false, false, true, true}},
		{"f * 2 + 1 > n", []bool{true, false, false, true}},
		{`s == "R.0"`, []bool{false, true, false, false}},
		{`s != "R"`, []bool{false, true, true, true}},
		{`prefix(s, "R.0")`, []bool{false, true, true, false}},
		{`under(s, "R.0")`, []bool{false, true, true, false}},
		{`under(s, "R")`, []bool{true, true, true, true}},
		{"f > 0 && n <= 0 || f == 0", []bool{true, false, true, false}},
		{"!(n == 3)", []bool{true, true, false, true}},
	}
	for _, c := range cases {
		e, err := ParseExpr(c.src)
		if err != nil {
			t.Fatalf("ParseExpr(%q): %v", c.src, err)
		}
		out := make([]bool, 4)
		if err := e.EvalBool(tab, nil, out); err != nil {
			t.Fatalf("EvalBool(%q): %v", c.src, err)
		}
		for i := range c.want {
			if out[i] != c.want[i] {
				t.Errorf("%q row %d = %v, want %v", c.src, i, out[i], c.want[i])
			}
		}
	}
}
