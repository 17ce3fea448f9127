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
// analyzed run: one row per grain, identity and timing columns first, then
// the metric columns the highlight thresholds read (same names, same
// values — ProblemQuery predicates run unchanged over this table):
//
//	id, kind, loc, parent  string  grain identity and source definition
//	depth                  int     spawn depth
//	start, end, exec       int     wall-clock span and execution cycles
//	core                   int     core of the first fragment
//	benefit, workdev, util float   highlight metric ratios
//	parallelism, scatter, stall    int highlight metric counts
func QueryTable(res *Result, pool *runpool.Runner) *query.Table {
	rep := res.Report
	n := len(rep.Grains)
	id := make([]string, n)
	kind := make([]string, n)
	loc := make([]string, n)
	parent := make([]string, n)
	depth := make([]int64, n)
	start := make([]int64, n)
	end := make([]int64, n)
	exec := make([]int64, n)
	core := make([]int64, n)
	// A run has a handful of source definitions and up to millions of
	// grains: render each definition once and share the string.
	locs := make(map[profile.SrcLoc]string)
	for i, gm := range rep.Grains {
		s, ok := locs[gm.Grain.Loc]
		if !ok {
			s = gm.Grain.Loc.String()
			locs[gm.Grain.Loc] = s
		}
		loc[i] = s
	}
	runpool.ParallelFor(pool, n, queryChunk, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			g := rep.Grains[i].Grain
			id[i] = string(g.ID)
			kind[i] = g.Kind.String()
			parent[i] = string(g.Parent)
			depth[i] = int64(g.Depth)
			start[i] = int64(g.Start)
			end[i] = int64(g.End)
			exec[i] = int64(g.Exec)
			core[i] = int64(g.Core)
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
		AddInt("exec", exec).
		AddInt("core", core)
	for _, c := range highlight.MetricTable(rep, pool).Columns() {
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
