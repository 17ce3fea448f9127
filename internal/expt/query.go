package expt

import (
	"io"

	"graingraph/internal/highlight"
	"graingraph/internal/obs"
	"graingraph/internal/profile"
	"graingraph/internal/query"
	"graingraph/internal/runpool"
)

// queryChunk is the row-chunk grain for building the query source table.
const queryChunk = 1024

// QueryTable builds the "from grains" source of the query grammar for an
// analyzed run: the report's per-grain table, one row per grain in report
// order, with identity and timing columns first, then the metric columns
// the highlight thresholds read (same names, same values — ProblemQuery
// predicates run unchanged over this table):
//
//	id, kind, loc, parent  string  grain identity and source definition
//	depth                  int     spawn depth
//	start, end, exec       int     wall-clock span and execution cycles
//	core                   int     core of the first fragment
//	benefit, workdev, util float   highlight metric ratios
//	parallelism, scatter, stall    int highlight metric counts
//
// exec and the metric columns are the report's own slices, adopted without
// copying (highlight.MetricTable); only the identity columns are built, read
// from the trace by grain number.
func QueryTable(res *Result, pool *runpool.Runner) *query.Table {
	rep := res.Report
	tr := rep.Trace
	n := rep.Len()
	id := make([]string, n)
	kind := make([]string, n)
	loc := make([]string, n)
	parent := make([]string, n)
	depth := make([]int64, n)
	start := make([]int64, n)
	end := make([]int64, n)
	core := make([]int64, n)
	// A run has a handful of source definitions and up to millions of
	// grains: render each definition once and share the string.
	// Rows of one definition tend to run together, so the previous row's
	// string is tried before the map.
	locs := make(map[profile.SrcLoc]string)
	var prev profile.SrcLoc
	for i, num := range rep.Num {
		l := tr.GrainLoc(num)
		if i > 0 && l == prev {
			loc[i] = loc[i-1]
			continue
		}
		s, ok := locs[l]
		if !ok {
			s = l.String()
			locs[l] = s
		}
		loc[i], prev = s, l
	}
	ids := tr.Numbering().IDs
	runpool.ParallelFor(pool, n, queryChunk, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			num := rep.Num[i]
			s, e := tr.GrainSpan(num)
			id[i] = string(ids[num])
			kind[i] = tr.GrainKind(num).String()
			parent[i] = string(tr.GrainParent(num))
			depth[i] = int64(tr.GrainDepth(num))
			start[i] = int64(s)
			end[i] = int64(e)
			core[i] = int64(tr.GrainCore(num))
		}
	})
	t := query.NewTable(n).
		AddStr("id", id).
		AddStr("kind", kind).
		AddStr("loc", loc).
		AddStr("parent", parent).
		AddInt("depth", depth).
		AddInt("start", start).
		AddInt("end", end).
		AddInt("exec", rep.Exec).
		AddInt("core", core)
	for _, c := range highlight.MetricTable(rep).Columns() {
		switch c.Kind {
		case query.Float:
			t.AddFloat(c.Name, c.F)
		case query.Int:
			t.AddInt(c.Name, c.I)
		default:
			t.AddStr(c.Name, c.S)
		}
	}
	return t
}

// WriteQuery compiles src as a query plan, runs it against the analyzed
// run, and renders the result table. grainview's -query flag and
// grainserved's /query endpoint both render through here, which is what
// keeps the two surfaces byte-identical for the same artifact and query —
// the CI smoke test diffs them.
func WriteQuery(w io.Writer, res *Result, src string, pool *runpool.Runner) error {
	plan, err := query.Parse(src)
	if err != nil {
		return err
	}
	return WritePlanSpan(w, res, plan, pool, nil)
}

// WritePlanSpan is WriteQuery for a pre-compiled plan (the server parses
// up front so malformed queries fail fast, before cache admission). The
// "grains" source is the per-grain metric table; "tasks" builds the
// level-of-detail summary index on demand and queries its per-task
// subtree aggregates. Source-table construction and plan execution are
// reported as child phase spans under parent (nil reports nothing), so
// `-phases` attributes the one-time index build separately from the
// per-query execution cost.
func WritePlanSpan(w io.Writer, res *Result, plan *query.Plan, pool *runpool.Runner, parent *obs.Span) error {
	tsp := parent.Child("query:table")
	var t *query.Table
	if plan.Source() == "tasks" {
		t = res.Lod().Table()
	} else {
		t = res.GrainTable(pool)
	}
	tsp.End()
	rsp := parent.Child("query:run")
	out, err := plan.Run(t, pool)
	rsp.End()
	if err != nil {
		return err
	}
	return query.WriteTable(w, out)
}
