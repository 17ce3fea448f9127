package expt

import (
	"fmt"
	"io"
	"strings"

	"graingraph/internal/core"
	"graingraph/internal/export"
	"graingraph/internal/lod"
	"graingraph/internal/obs"
	"graingraph/internal/runpool"
	"graingraph/internal/timeline"
	"graingraph/internal/whatif"
)

// Report writers shared by grainview and grainserved: both surfaces render
// an analyzed artifact through these exact functions (the view table in
// views.go is built from them), which is what makes the server's payloads
// byte-identical to the CLI's output for the same artifact.

// WriteSummary renders the problem summary and thread timeline for an
// analyzed run: the program header, critical-path share, per-problem grain
// counts, and the conventional-tools-eye view of the same execution.
func WriteSummary(w io.Writer, res *Result) error {
	s := res.Assessment.Summarize()
	tw := table(w)
	fmt.Fprintf(tw, "program\t%s\n", s.Program)
	fmt.Fprintf(tw, "cores\t%d\n", s.Cores)
	fmt.Fprintf(tw, "grains\t%d\n", s.TotalGrains)
	fmt.Fprintf(tw, "makespan\t%d cycles\n", s.Makespan)
	fmt.Fprintf(tw, "critical path\t%d cycles (%.1f%% of makespan)\n",
		s.CriticalLen, 100*float64(s.CriticalLen)/float64(s.Makespan))
	if s.WorstLoopLB > 0 {
		fmt.Fprintf(tw, "worst loop load balance\t%.2f (loop %d)\n", s.WorstLoopLB, s.WorstLoopLBLoop)
	}
	fmt.Fprintln(tw, "\nproblem\tgrains\taffected")
	for _, row := range s.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%.1f%%\n", row.Problem, row.Count, 100*row.Affected)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nthread timeline (what conventional tools show):")
	return timeline.FromTrace(res.Trace).Render(w)
}

// highlightOffenders is how many worst offenders the highlight table names
// per problem, and highlightDefs how many source definitions.
const (
	highlightOffenders = 3
	highlightDefs      = 2
)

// WriteHighlight renders the highlight table: every problem with its grain
// count, affected share, and the worst offending grains (severity in
// parentheses), followed by the heaviest source definitions exhibiting each
// problem — the paper's "sort task definitions by work inflation" triage
// view in one screen. Output is deterministic: offender and definition
// rankings both break ties totally.
func WriteHighlight(w io.Writer, res *Result) error {
	a := res.Assessment
	s := a.Summarize()
	fmt.Fprintf(w, "highlight: %s (%d cores, %d grains)\n", s.Program, s.Cores, s.TotalGrains)
	tw := table(w)
	fmt.Fprintln(tw, "problem\tgrains\taffected\tworst offenders")
	for _, row := range s.Rows {
		offenders := "-"
		if row.Count > 0 {
			var parts []string
			for _, g := range a.TopOffenders(row.Problem, highlightOffenders) {
				sev, _ := a.Severity(g, row.Problem)
				parts = append(parts, fmt.Sprintf("%s(%.2f)", g.Metrics.Grain.ID, sev))
			}
			offenders = strings.Join(parts, " ")
		}
		fmt.Fprintf(tw, "%s\t%d\t%.1f%%\t%s\n", row.Problem, row.Count, 100*row.Affected, offenders)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	wroteHeader := false
	tw = table(w)
	for _, row := range s.Rows {
		if row.Count == 0 {
			continue
		}
		for i, ds := range a.ByDefinition(row.Problem) {
			if i >= highlightDefs {
				break
			}
			if ds.Flagged == 0 {
				continue
			}
			if !wroteHeader {
				fmt.Fprintln(w, "\nhot definitions:")
				fmt.Fprintln(tw, "problem\tdefinition\tflagged\texec cycles")
				wroteHeader = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%d\n",
				row.Problem, ds.Loc, ds.Flagged, ds.Grains, ds.TotalExec)
		}
	}
	return tw.Flush()
}

// WhatIfRank generates and ranks the what-if opportunity table for an
// analyzed run on an explicit pool: candidate hypotheses from the highlight
// top offenders, projected via the incremental critical-path engine —
// exactly grainview's -whatif rank pipeline. parent, when non-nil, roots
// the engine's phase spans.
func WhatIfRank(res *Result, pool *runpool.Runner, parent *obs.Span) ([]whatif.Projection, error) {
	eng := whatif.New(res.Graph, res.Report)
	eng.Obs = parent
	return eng.Rank(res.Assessment, pool, whatif.RankOptions{TopN: 10})
}

// WriteWhatIfTable renders ranked projections with the standard
// "what-if: <program> (<cores> cores)" title grainview prints.
func WriteWhatIfTable(w io.Writer, res *Result, ps []whatif.Projection) error {
	title := fmt.Sprintf("what-if: %s (%d cores)", res.Trace.Program, res.Trace.Cores)
	return whatif.WriteTable(w, title, ps)
}

// Window cuts the level-of-detail window opt out of res's graph, building
// or adopting the index on first use. A root that names no task is the
// request's fault, a *ParamError.
func Window(res *Result, opt lod.WindowOptions, sp *obs.Span) (*core.Graph, lod.WindowStats, error) {
	isp := sp.Child("lod:index")
	ix := res.Lod()
	isp.End()
	wsp := sp.Child("lod:window")
	defer wsp.End()
	g, st, err := ix.Window(opt)
	if err != nil {
		return nil, st, &ParamError{"window", err}
	}
	return g, st, nil
}

// WriteGraph exports g, a graph of res, as graphml, dot or json, coloured
// by view v and annotated with the projections ps (dot and json). full
// lifts the export size gate.
func WriteGraph(w io.Writer, g *core.Graph, res *Result, format string, v export.View, ps []whatif.Projection, full bool, pool *runpool.Runner) error {
	a := res.Assessment
	switch {
	case format == "graphml" && full:
		return export.FullGraphML(w, g, a, v)
	case format == "graphml":
		return export.GraphML(w, g, a, v)
	case format == "dot" && full:
		return export.FullDOT(w, g, a, v, ps, pool)
	case format == "dot":
		return export.DOTWithWhatIfPool(w, g, a, v, ps, pool)
	case format == "json" && full:
		return export.FullJSON(w, g, a, ps, pool)
	case format == "json":
		return export.JSONWithWhatIfPool(w, g, a, ps, pool)
	}
	return fmt.Errorf("unknown format %q", format)
}
