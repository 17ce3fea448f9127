package expt

import (
	"bytes"
	"fmt"
	"io"
	"net/url"

	"graingraph/internal/core"
	"graingraph/internal/export"
	"graingraph/internal/lod"
	"graingraph/internal/obs"
	"graingraph/internal/profile"
	"graingraph/internal/query"
	"graingraph/internal/runpool"
	"graingraph/internal/timeline"
	"graingraph/internal/whatif"
)

// The view table: every way of looking at an analyzed run that both front
// ends offer, declared once. A row names the view, parses and range-checks
// its parameters from url.Values — before anyone spends an admission slot
// or an analysis on a malformed request — and renders the response bytes
// through the report writers. grainserved generates its GET routes,
// render-memo keys and content types from the rows; grainview maps its
// flags onto the same (view, parameters) pairs. Both front ends therefore
// serve the same bytes for the same artifact, and a new row is served by
// both with no handler code.

// View is one row of the table.
type View struct {
	Name string
	// Parse parses and range-checks the view's parameters; it ignores
	// parameters the view does not read. A rejected parameter is a
	// *ParamError, or a *query.Error from the query grammar.
	Parse func(q url.Values) (Params, error)
	// Render produces the view of s on pool; sp, when non-nil, roots its
	// phase spans.
	Render func(s *Subject, p Params, pool *runpool.Runner, sp *obs.Span) ([]byte, error)
}

// Params are a view's parsed, range-checked parameters.
type Params struct {
	// Key encodes the parameters: requests with equal keys render equal
	// bytes, so (artifact, view, Key) addresses a rendered response.
	Key         string
	ContentType string

	plan   *query.Plan         // query
	specs  []whatif.Hypothesis // whatif; nil ranks the opportunity table
	window lod.WindowOptions   // window, defaults filled in
	format string              // window
}

// Subject is what a view renders: an analyzed run, with what its stats
// and trace views report beside it.
type Subject struct {
	Res *Result
	// Baseline, when set, is the 1-core run Res was analyzed against; the
	// stats and trace views report it first.
	Baseline *profile.Trace
}

// ParamError is a view parameter the grammar rejects: the request's fault,
// a 400 over HTTP and a usage error on the command line.
type ParamError struct {
	View string
	Err  error
}

func (e *ParamError) Error() string { return e.Err.Error() }
func (e *ParamError) Unwrap() error { return e.Err }

const textPlain = "text/plain; charset=utf-8"

// windowFormats maps each window export format to its content type.
var windowFormats = map[string]string{
	"dot":     "text/vnd.graphviz; charset=utf-8",
	"json":    "application/json",
	"graphml": "application/xml",
}

// Views is the table, in the order grainserved registers its routes.
var Views = []View{
	{"summary", plain(textPlain), writer(func(w io.Writer, s *Subject) error { return WriteSummary(w, s.Res) })},
	{"highlight", plain(textPlain), writer(func(w io.Writer, s *Subject) error { return WriteHighlight(w, s.Res) })},
	{"whatif", parseWhatIf, renderWhatIf},
	{"query", parseQuery, renderQuery},
	{"window", parseWindow, renderWindow},
	{"stats", plain(textPlain), writer(writeStats)},
	{"trace", plain("application/json"), writer(func(w io.Writer, s *Subject) error { return export.Perfetto(w, s.Runs()) })},
}

// LookupView returns the row named name, or nil.
func LookupView(name string) *View {
	for i := range Views {
		if Views[i].Name == name {
			return &Views[i]
		}
	}
	return nil
}

// plain is the grammar of a view without parameters.
func plain(contentType string) func(url.Values) (Params, error) {
	return func(url.Values) (Params, error) { return Params{ContentType: contentType}, nil }
}

// writer renders a view without parameters through a writer.
func writer(write func(io.Writer, *Subject) error) func(*Subject, Params, *runpool.Runner, *obs.Span) ([]byte, error) {
	return func(s *Subject, _ Params, _ *runpool.Runner, _ *obs.Span) ([]byte, error) {
		var buf bytes.Buffer
		err := write(&buf, s)
		return buf.Bytes(), err
	}
}

// parseWhatIf reads spec: empty or "rank" for the ranked opportunity
// table, otherwise a hypothesis list in whatif.ParseSpecs's grammar.
func parseWhatIf(q url.Values) (Params, error) {
	p := Params{ContentType: textPlain}
	if spec := q.Get("spec"); spec != "" && spec != "rank" {
		hs, err := whatif.ParseSpecs(spec)
		if err != nil {
			return p, &ParamError{"whatif", err}
		}
		p.Key, p.specs = "spec="+spec, hs
	}
	return p, nil
}

func renderWhatIf(s *Subject, p Params, pool *runpool.Runner, sp *obs.Span) ([]byte, error) {
	ps, err := Projections(s.Res, p, pool, sp)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = WriteWhatIfTable(&buf, s.Res, ps)
	return buf.Bytes(), err
}

// Projections evaluates the what-if view's hypotheses for res: the ranked
// opportunity table, or the parsed spec list. grainview also attaches them
// to its DOT and JSON exports.
func Projections(res *Result, p Params, pool *runpool.Runner, sp *obs.Span) ([]whatif.Projection, error) {
	wsp := sp.Child("whatif")
	defer wsp.End()
	if p.specs == nil {
		return WhatIfRank(res, pool, wsp)
	}
	nsp := wsp.Child("whatif:new")
	eng := whatif.New(res.Graph, res.Report)
	nsp.End()
	eng.Obs = wsp
	return eng.EvalAll(pool, p.specs), nil
}

// parseQuery compiles q, a plan in the query grammar.
func parseQuery(q url.Values) (Params, error) {
	src := q.Get("q")
	plan, err := query.Parse(src)
	if err != nil {
		return Params{}, err
	}
	return Params{Key: "q=" + src, ContentType: textPlain, plan: plan}, nil
}

func renderQuery(s *Subject, p Params, pool *runpool.Runner, sp *obs.Span) ([]byte, error) {
	var buf bytes.Buffer
	err := WritePlanSpan(&buf, s.Res, p.plan, pool, sp)
	return buf.Bytes(), err
}

// parseWindow reads root, depth and top in lod's window-key grammar (empty
// values take the defaults) and format, one of windowFormats (default
// dot).
func parseWindow(q url.Values) (Params, error) {
	var o lod.WindowOptions
	for _, k := range []string{"root", "depth", "top"} {
		if v := q.Get(k); v != "" {
			if err := o.Set(k, v); err != nil {
				return Params{}, &ParamError{"window", err}
			}
		}
	}
	o, err := o.WithDefaults()
	if err != nil {
		return Params{}, &ParamError{"window", err}
	}
	format := q.Get("format")
	if format == "" {
		format = "dot"
	}
	ct, ok := windowFormats[format]
	if !ok {
		return Params{}, &ParamError{"window", fmt.Errorf("unknown window format %q (want dot, json or graphml)", format)}
	}
	key := url.Values{"root": {string(o.Root)}, "depth": {fmt.Sprint(o.Depth)}, "top": {fmt.Sprint(o.Top)}, "format": {format}}.Encode()
	return Params{Key: key, ContentType: ct, window: o, format: format}, nil
}

func renderWindow(s *Subject, p Params, pool *runpool.Runner, sp *obs.Span) ([]byte, error) {
	g, _, err := Window(s.Res, p.window, sp)
	if err != nil {
		return nil, err
	}
	core.Layout(g)
	esp := sp.Child("export")
	defer esp.End()
	var buf bytes.Buffer
	err = WriteGraph(&buf, g, s.Res, p.format, export.ViewStructure, nil, false, pool)
	return buf.Bytes(), err
}

// Runs lists the runs the stats and trace views report, baseline first: a
// live run's own log, or else the analyzed run and Baseline.
func (s *Subject) Runs() []export.PerfettoRun {
	if s.Res.Runs != nil {
		return PerfettoRuns(s.Res.Runs)
	}
	var runs []export.PerfettoRun
	if s.Baseline != nil {
		runs = append(runs, export.PerfettoRun{Label: s.Baseline.Program + " baseline", Trace: s.Baseline})
	}
	return append(runs, export.PerfettoRun{Label: s.Res.Trace.Program, Trace: s.Res.Trace, Critical: s.Res.Graph.CriticalGrains()})
}

// writeStats writes each reported run's runtime stats, derived from its
// profile.
func writeStats(w io.Writer, s *Subject) error {
	for _, r := range s.Runs() {
		fmt.Fprintf(w, "runtime stats — %s\n", r.Label)
		if err := timeline.StatsFromTrace(r.Trace).Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
