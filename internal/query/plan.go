package query

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"graingraph/internal/runpool"
)

// A Plan is a compiled verb pipeline. The grammar is a '|'-separated chain
// in the spirit of the what-if spec grammar:
//
//	[from grains|tasks |] verb | verb | ...
//
// with verbs
//
//	filter <expr>                      keep rows satisfying a predicate
//	groupby <col>[,<col>...]           group rows (must be followed by agg)
//	agg <call>[,<call>...]             aggregate: sum(c) mean(c) max(c)
//	                                   min(c) count() quantile(c,q)
//	sort <col> [asc|desc][, ...]       order rows (stable; default asc)
//	topk <n> [by <col> [asc|desc]]     keep the n best rows (default desc)
//	select <col>[,<col>...]            project columns
//
// Aggregate output columns are named sum_c, mean_c, max_c, min_c, count
// and p<100q>_c (quantile(work,0.9) → p90_work, by the nearest-rank rule);
// later verbs reference them by those names. sum/max/min/quantile keep the
// source column's kind (integer cycle counts stay integers); mean is
// always float; count is an integer.
//
// Example — the paper's "which loop grains under R have low parallel
// benefit and high work deviation?":
//
//	filter kind == "chunk" && under(id, "R") && benefit < 1 && workdev > 2
//	  | sort exec desc | topk 10 | select id,loc,exec,benefit,workdev
type Plan struct {
	src    string
	source string // "grains" (default) or "tasks"
	ops    []planOp
}

// Src returns the source text the plan was compiled from.
func (p *Plan) Src() string { return p.src }

// Source names the table the plan runs over: "grains" (the per-grain
// metric rows, default) or "tasks" (the level-of-detail summary index).
func (p *Plan) Source() string { return p.source }

type planOp interface {
	run(t *Table, pool *runpool.Runner) (*Table, error)
}

// Parse compiles a verb pipeline. All failures are *Error values: the
// query is malformed, the engine is fine.
func Parse(src string) (*Plan, error) {
	p := &Plan{src: src, source: "grains"}
	stages := splitStages(src)
	var pendingGroup []string
	for si, stage := range stages {
		stage = strings.TrimSpace(stage)
		if stage == "" {
			if len(stages) == 1 {
				return nil, errf(src, "empty query")
			}
			return nil, errf(src, "empty pipeline stage")
		}
		verb, rest, _ := strings.Cut(stage, " ")
		rest = strings.TrimSpace(rest)
		if verb == "from" {
			if si != 0 {
				return nil, errf(stage, "from must be the first stage")
			}
			if rest != "grains" && rest != "tasks" {
				return nil, errf(stage, "unknown source %q (want grains or tasks)", rest)
			}
			p.source = rest
			continue
		}
		if pendingGroup != nil && verb != "agg" {
			return nil, errf(stage, "groupby must be followed by agg")
		}
		switch verb {
		case "filter":
			e, err := ParseExpr(rest)
			if err != nil {
				return nil, err
			}
			p.ops = append(p.ops, filterOp{expr: e})
		case "groupby":
			cols, err := splitNames(stage, rest)
			if err != nil {
				return nil, err
			}
			pendingGroup = cols
		case "agg":
			aggs, err := parseAggs(rest)
			if err != nil {
				return nil, err
			}
			p.ops = append(p.ops, aggOp{keys: pendingGroup, aggs: aggs})
			pendingGroup = nil
		case "sort":
			keys, err := parseSortKeys(stage, rest)
			if err != nil {
				return nil, err
			}
			p.ops = append(p.ops, sortOp{keys: keys})
		case "topk":
			op, err := parseTopK(stage, rest)
			if err != nil {
				return nil, err
			}
			p.ops = append(p.ops, op)
		case "select":
			cols, err := splitNames(stage, rest)
			if err != nil {
				return nil, err
			}
			p.ops = append(p.ops, selectOp{cols: cols})
		default:
			return nil, errf(verb, "unknown verb (want filter, groupby, agg, sort, topk, select)")
		}
	}
	if pendingGroup != nil {
		return nil, errf(src, "groupby must be followed by agg")
	}
	if len(p.ops) == 0 {
		return nil, errf(src, "empty query")
	}
	return p, nil
}

// Run executes the plan over t across the pool and returns the result
// table. t is never mutated. Results are byte-identical at every pool
// size, including nil (serial).
func (p *Plan) Run(t *Table, pool *runpool.Runner) (*Table, error) {
	var err error
	for _, op := range p.ops {
		t, err = op.run(t, pool)
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// splitStages splits a plan source on single '|' stage separators, leaving
// '||' operators and quoted string literals intact — "filter a > 0 || b > 0"
// is one stage, not three.
func splitStages(src string) []string {
	var stages []string
	start := 0
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '\'', '"':
			q := src[i]
			for i++; i < len(src) && src[i] != q; i++ {
			}
		case '|':
			if i+1 < len(src) && src[i+1] == '|' {
				i++
				continue
			}
			stages = append(stages, src[start:i])
			start = i + 1
		}
	}
	return append(stages, src[start:])
}

func splitNames(stage, rest string) ([]string, error) {
	if rest == "" {
		return nil, errf(stage, "missing column list")
	}
	var cols []string
	for _, c := range strings.Split(rest, ",") {
		c = strings.TrimSpace(c)
		if c == "" {
			return nil, errf(stage, "empty column name")
		}
		cols = append(cols, c)
	}
	return cols, nil
}

// --- filter ---

type filterOp struct{ expr *Expr }

func (f filterOp) run(t *Table, pool *runpool.Runner) (*Table, error) {
	idx, err := FilterRows(t, f.expr, pool)
	if err != nil {
		return nil, err
	}
	return t.gather(idx), nil
}

// --- select ---

type selectOp struct{ cols []string }

func (s selectOp) run(t *Table, _ *runpool.Runner) (*Table, error) {
	out := NewTable(t.rows)
	for _, name := range s.cols {
		c := t.Col(name)
		if c == nil {
			return nil, errf(name, "unknown column (have %s)", columnNames(t))
		}
		out.add(c)
	}
	return out, nil
}

// --- sort ---

type sortKey struct {
	col  string
	desc bool
}

func parseSortKeys(stage, rest string) ([]sortKey, error) {
	if rest == "" {
		return nil, errf(stage, "missing sort key")
	}
	var keys []sortKey
	for _, part := range strings.Split(rest, ",") {
		fields := strings.Fields(part)
		switch len(fields) {
		case 1:
			keys = append(keys, sortKey{col: fields[0]})
		case 2:
			switch fields[1] {
			case "asc":
				keys = append(keys, sortKey{col: fields[0]})
			case "desc":
				keys = append(keys, sortKey{col: fields[0], desc: true})
			default:
				return nil, errf(part, "want <col> [asc|desc]")
			}
		default:
			return nil, errf(part, "want <col> [asc|desc]")
		}
	}
	return keys, nil
}

type sortOp struct{ keys []sortKey }

// keyLess builds the composite comparator for a key list; ties are broken
// by the caller (stable sort keeps row order; topk uses row index).
func keyLess(t *Table, keys []sortKey) (func(i, j int) bool, error) {
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

// floatLess is a total order over float64: NaN sorts before everything
// (and equal to itself), so sorting is deterministic even on NaN metrics.
func floatLess(a, b float64) bool {
	if a != a {
		return b == b
	}
	if b != b {
		return false
	}
	return a < b
}

func (s sortOp) run(t *Table, _ *runpool.Runner) (*Table, error) {
	less, err := keyLess(t, s.keys)
	if err != nil {
		return nil, err
	}
	return t.gather(SortRows(t.rows, less)), nil
}

// --- topk ---

type topkOp struct {
	n    int
	keys []sortKey // empty: keep the first n rows in current order
}

func parseTopK(stage, rest string) (topkOp, error) {
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return topkOp{}, errf(stage, "want topk <n> [by <col> [asc|desc]]")
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil || n < 0 {
		return topkOp{}, errf(stage, "bad count %q", fields[0])
	}
	op := topkOp{n: n}
	if len(fields) == 1 {
		return op, nil
	}
	if fields[1] != "by" || len(fields) < 3 || len(fields) > 4 {
		return topkOp{}, errf(stage, "want topk <n> [by <col> [asc|desc]]")
	}
	key := sortKey{col: fields[2], desc: true} // ranking defaults to best-first
	if len(fields) == 4 {
		switch fields[3] {
		case "asc":
			key.desc = false
		case "desc":
		default:
			return topkOp{}, errf(stage, "want asc or desc, got %q", fields[3])
		}
	}
	op.keys = []sortKey{key}
	return op, nil
}

func (op topkOp) run(t *Table, pool *runpool.Runner) (*Table, error) {
	if len(op.keys) == 0 {
		n := op.n
		if n > t.rows {
			n = t.rows
		}
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		return t.gather(idx), nil
	}
	less, err := keyLess(t, op.keys)
	if err != nil {
		return nil, err
	}
	// above is the strict total order "i ranks before j": the key order
	// with ascending row index breaking ties, exactly what sort+truncate
	// would produce.
	above := func(i, j int) bool {
		if less(i, j) {
			return true
		}
		if less(j, i) {
			return false
		}
		return i < j
	}
	return t.gather(TopKPool(pool, t.rows, op.n, above)), nil
}

// --- groupby / agg ---

type aggSpec struct {
	fn   string // sum mean max min count quantile
	col  string
	q    float64 // quantile only
	name string  // output column name
}

// parseAggs parses the agg call list, splitting on top-level commas only
// (quantile's own comma stays inside its parentheses).
func parseAggs(rest string) ([]aggSpec, error) {
	if strings.TrimSpace(rest) == "" {
		return nil, errf("agg", "missing aggregate list")
	}
	var specs []aggSpec
	depth, start := 0, 0
	flush := func(call string) error {
		call = strings.TrimSpace(call)
		if call == "" {
			return errf(rest, "empty aggregate")
		}
		spec, err := parseAggCall(call)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
		return nil
	}
	for i := 0; i < len(rest); i++ {
		switch rest[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				if err := flush(rest[start:i]); err != nil {
					return nil, err
				}
				start = i + 1
			}
		}
	}
	if err := flush(rest[start:]); err != nil {
		return nil, err
	}
	return specs, nil
}

func parseAggCall(call string) (aggSpec, error) {
	if call == "count" || call == "count()" {
		return aggSpec{fn: "count", name: "count"}, nil
	}
	fn, rest, ok := strings.Cut(call, "(")
	if !ok || !strings.HasSuffix(rest, ")") {
		return aggSpec{}, errf(call, "want fn(col): sum, mean, max, min, count, quantile")
	}
	args := strings.Split(strings.TrimSuffix(rest, ")"), ",")
	for i := range args {
		args[i] = strings.TrimSpace(args[i])
	}
	switch fn {
	case "sum", "mean", "max", "min":
		if len(args) != 1 || args[0] == "" {
			return aggSpec{}, errf(call, "want %s(<col>)", fn)
		}
		return aggSpec{fn: fn, col: args[0], name: fn + "_" + args[0]}, nil
	case "quantile":
		if len(args) != 2 {
			return aggSpec{}, errf(call, "want quantile(<col>, <q>)")
		}
		q, err := strconv.ParseFloat(args[1], 64)
		if err != nil || q < 0 || q > 1 {
			return aggSpec{}, errf(call, "bad quantile %q (want 0..1)", args[1])
		}
		name := fmt.Sprintf("p%s_%s", strconv.FormatFloat(100*q, 'g', -1, 64), args[0])
		return aggSpec{fn: "quantile", col: args[0], q: q, name: name}, nil
	default:
		return aggSpec{}, errf(call, "unknown aggregate %q (want sum, mean, max, min, count, quantile)", fn)
	}
}

type aggOp struct {
	keys []string // group-by columns; empty = one global group
	aggs []aggSpec
}

// groupAcc accumulates one group's partial aggregates within one chunk.
type groupAcc struct {
	firstRow int32 // source row the group key was first seen at
	count    int64
	sumF     []float64 // per agg spec
	sumI     []int64
	maxF     []float64
	maxI     []int64
	minSet   []bool
	vals     [][]float64 // quantile collection (float path)
	valsI    [][]int64   // quantile collection (int path)
}

// chunkGroups is one chunk's local grouping: accumulators in
// first-appearance order plus the key lookup.
type chunkGroups struct {
	order []string
	m     map[string]*groupAcc
}

func (op aggOp) run(t *Table, pool *runpool.Runner) (*Table, error) {
	// Bind the inputs once, up front.
	keyCols := make([]*Column, len(op.keys))
	for i, k := range op.keys {
		c := t.Col(k)
		if c == nil {
			return nil, errf(k, "unknown column (have %s)", columnNames(t))
		}
		keyCols[i] = c
	}
	aggCols := make([]*Column, len(op.aggs))
	for i, a := range op.aggs {
		if a.fn == "count" {
			continue
		}
		c := t.Col(a.col)
		if c == nil {
			return nil, errf(a.col, "unknown column (have %s)", columnNames(t))
		}
		if c.Kind == Str {
			return nil, errf(a.col, "%s needs a numeric column", a.fn)
		}
		aggCols[i] = c
	}

	// Phase 1: chunk-local grouping across the pool. Each chunk builds its
	// own accumulator set in first-appearance order; nothing is shared.
	rows := t.rows
	chunks := runpool.Chunks(rows, exprChunk)
	if chunks == 0 {
		chunks = 1 // an empty table still aggregates (count 0 global group)
	}
	locals := make([]*chunkGroups, chunks)
	runpool.ParallelFor(pool, rows, exprChunk, func(c, lo, hi int) {
		locals[c] = op.accumulate(t, keyCols, aggCols, lo, hi)
	})

	// Phase 2: merge the chunk-local groups in ascending chunk order, so
	// group identity and order equal the serial first-appearance scan.
	merged := &chunkGroups{m: make(map[string]*groupAcc)}
	for _, local := range locals {
		if local == nil {
			continue
		}
		for _, key := range local.order {
			src := local.m[key]
			dst, ok := merged.m[key]
			if !ok {
				merged.order = append(merged.order, key)
				merged.m[key] = src
				continue
			}
			dst.merge(src, op.aggs)
		}
	}
	if len(op.keys) == 0 && len(merged.order) == 0 {
		// Global aggregate over zero rows: one empty group, so count()
		// reports 0 instead of vanishing.
		merged.order = append(merged.order, "")
		merged.m[""] = op.newAcc(-1)
	}

	return op.emit(t, keyCols, aggCols, merged)
}

func (op aggOp) newAcc(firstRow int32) *groupAcc {
	n := len(op.aggs)
	return &groupAcc{
		firstRow: firstRow,
		sumF:     make([]float64, n),
		sumI:     make([]int64, n),
		maxF:     make([]float64, n),
		maxI:     make([]int64, n),
		minSet:   make([]bool, n),
		vals:     make([][]float64, n),
		valsI:    make([][]int64, n),
	}
}

// accumulate scans rows [lo, hi) into a fresh local grouping.
func (op aggOp) accumulate(t *Table, keyCols, aggCols []*Column, lo, hi int) *chunkGroups {
	local := &chunkGroups{m: make(map[string]*groupAcc)}
	var keyBuf []byte
	for r := lo; r < hi; r++ {
		keyBuf = keyBuf[:0]
		for _, kc := range keyCols {
			switch kc.Kind {
			case Str:
				keyBuf = append(keyBuf, kc.S[r]...)
			case Int:
				keyBuf = strconv.AppendInt(keyBuf, kc.I[r], 10)
			default:
				keyBuf = strconv.AppendFloat(keyBuf, kc.F[r], 'g', -1, 64)
			}
			keyBuf = append(keyBuf, 0)
		}
		key := string(keyBuf)
		acc, ok := local.m[key]
		if !ok {
			acc = op.newAcc(int32(r))
			local.m[key] = acc
			local.order = append(local.order, key)
		}
		acc.count++
		for i, spec := range op.aggs {
			c := aggCols[i]
			if c == nil { // count
				continue
			}
			switch spec.fn {
			case "sum":
				if c.Kind == Int {
					acc.sumI[i] += c.I[r]
				} else {
					acc.sumF[i] += c.F[r]
				}
			case "mean":
				acc.sumF[i] += c.num(r)
			case "max":
				if c.Kind == Int {
					if !acc.minSet[i] || c.I[r] > acc.maxI[i] {
						acc.maxI[i] = c.I[r]
					}
				} else if !acc.minSet[i] || c.F[r] > acc.maxF[i] {
					acc.maxF[i] = c.F[r]
				}
				acc.minSet[i] = true
			case "min":
				if c.Kind == Int {
					if !acc.minSet[i] || c.I[r] < acc.maxI[i] {
						acc.maxI[i] = c.I[r]
					}
				} else if !acc.minSet[i] || c.F[r] < acc.maxF[i] {
					acc.maxF[i] = c.F[r]
				}
				acc.minSet[i] = true
			case "quantile":
				if c.Kind == Int {
					acc.valsI[i] = append(acc.valsI[i], c.I[r])
				} else {
					acc.vals[i] = append(acc.vals[i], c.F[r])
				}
			}
		}
	}
	return local
}

// merge folds src (a later chunk) into dst.
func (acc *groupAcc) merge(src *groupAcc, aggs []aggSpec) {
	acc.count += src.count
	for i, spec := range aggs {
		switch spec.fn {
		case "sum", "mean":
			acc.sumF[i] += src.sumF[i]
			acc.sumI[i] += src.sumI[i]
		case "max":
			if src.minSet[i] {
				if !acc.minSet[i] || src.maxI[i] > acc.maxI[i] {
					acc.maxI[i] = src.maxI[i]
				}
				if !acc.minSet[i] || src.maxF[i] > acc.maxF[i] {
					acc.maxF[i] = src.maxF[i]
				}
				acc.minSet[i] = true
			}
		case "min":
			if src.minSet[i] {
				if !acc.minSet[i] || src.maxI[i] < acc.maxI[i] {
					acc.maxI[i] = src.maxI[i]
				}
				if !acc.minSet[i] || src.maxF[i] < acc.maxF[i] {
					acc.maxF[i] = src.maxF[i]
				}
				acc.minSet[i] = true
			}
		case "quantile":
			acc.vals[i] = append(acc.vals[i], src.vals[i]...)
			acc.valsI[i] = append(acc.valsI[i], src.valsI[i]...)
		}
	}
}

// emit materializes the merged groups as the output table: the group key
// columns (gathered from each group's first row, preserving kind) followed
// by one column per aggregate.
func (op aggOp) emit(t *Table, keyCols, aggCols []*Column, merged *chunkGroups) (*Table, error) {
	n := len(merged.order)
	out := NewTable(n)
	firstRows := make([]int32, n)
	for g, key := range merged.order {
		firstRows[g] = merged.m[key].firstRow
	}
	for _, kc := range keyCols {
		nc := &Column{Name: kc.Name, Kind: kc.Kind}
		switch kc.Kind {
		case Float:
			nc.F = make([]float64, n)
			for g, r := range firstRows {
				nc.F[g] = kc.F[r]
			}
		case Int:
			nc.I = make([]int64, n)
			for g, r := range firstRows {
				nc.I[g] = kc.I[r]
			}
		default:
			nc.S = make([]string, n)
			for g, r := range firstRows {
				nc.S[g] = kc.S[r]
			}
		}
		out.add(nc)
	}
	for i, spec := range op.aggs {
		if out.Col(spec.name) != nil {
			return nil, errf(spec.name, "duplicate aggregate output column")
		}
		srcInt := aggCols[i] != nil && aggCols[i].Kind == Int
		switch {
		case spec.fn == "count":
			v := make([]int64, n)
			for g, key := range merged.order {
				v[g] = merged.m[key].count
			}
			out.AddInt(spec.name, v)
		case spec.fn == "mean":
			// mean accumulates in float regardless of source kind.
			v := make([]float64, n)
			for g, key := range merged.order {
				acc := merged.m[key]
				if acc.count > 0 {
					v[g] = acc.sumF[i] / float64(acc.count)
				}
			}
			out.AddFloat(spec.name, v)
		case spec.fn == "sum" && srcInt:
			v := make([]int64, n)
			for g, key := range merged.order {
				v[g] = merged.m[key].sumI[i]
			}
			out.AddInt(spec.name, v)
		case spec.fn == "sum":
			v := make([]float64, n)
			for g, key := range merged.order {
				v[g] = merged.m[key].sumF[i]
			}
			out.AddFloat(spec.name, v)
		case (spec.fn == "max" || spec.fn == "min") && srcInt:
			v := make([]int64, n)
			for g, key := range merged.order {
				v[g] = merged.m[key].maxI[i]
			}
			out.AddInt(spec.name, v)
		case spec.fn == "max" || spec.fn == "min":
			v := make([]float64, n)
			for g, key := range merged.order {
				v[g] = merged.m[key].maxF[i]
			}
			out.AddFloat(spec.name, v)
		case spec.fn == "quantile" && srcInt:
			v := make([]int64, n)
			for g, key := range merged.order {
				vals := merged.m[key].valsI[i]
				sorted := append([]int64(nil), vals...)
				sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
				v[g] = quantileInt(sorted, spec.q)
			}
			out.AddInt(spec.name, v)
		default: // quantile, float
			v := make([]float64, n)
			for g, key := range merged.order {
				vals := merged.m[key].vals[i]
				sorted := append([]float64(nil), vals...)
				sort.Float64s(sorted)
				v[g] = quantileFloat(sorted, spec.q)
			}
			out.AddFloat(spec.name, v)
		}
	}
	return out, nil
}

// quantileInt is the nearest-rank quantile over a sorted slice (the same
// rule the benchmark uses for its latency percentiles): rank ceil(q·n),
// clamped to [1, n]; 0 on empty input.
func quantileInt(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[quantileRank(len(sorted), q)]
}

func quantileFloat(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[quantileRank(len(sorted), q)]
}

// quantileRank returns the 0-based nearest-rank index for q over n values.
func quantileRank(n int, q float64) int {
	r := int(math.Ceil(float64(n) * q))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1
}
