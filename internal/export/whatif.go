package export

import (
	"bufio"
	"fmt"
	"io"

	"graingraph/internal/core"
	"graingraph/internal/highlight"
	"graingraph/internal/runpool"
	"graingraph/internal/whatif"
)

// jsonWhatIf is one ranked what-if projection in the JSON dump: enough for a
// viewer to show "fixing this buys that" next to the graph itself.
type jsonWhatIf struct {
	Rank        int     `json:"rank"`
	Hypothesis  string  `json:"hypothesis"`
	Makespan    uint64  `json:"proj_makespan"`
	Speedup     float64 `json:"proj_speedup"`
	Work        uint64  `json:"proj_work"`
	Span        uint64  `json:"proj_span"`
	Approximate bool    `json:"approximate"`
}

// JSONWithWhatIfPool writes the graph (with per-grain metrics and problem
// flags when an assessment is supplied) as indented JSON, with a ranked
// what-if section appended; ps may be nil, which yields the plain dump.
// Reflection-based marshalling of millions of rows is by far the most
// expensive step of the whole artifact-serving path, and every row depends
// only on its own graph columns, so the node and edge arrays shard across
// the pool into per-worker buffers and assemble in chunk order —
// byte-identical at every worker count. Graphs past MaxExportNodes are
// refused with a *HugeGraphError; FullJSON is the explicit opt-in.
func JSONWithWhatIfPool(w io.Writer, g *core.Graph, a *highlight.Assessment, ps []whatif.Projection, pool *runpool.Runner) error {
	if err := SizeGate(g, false); err != nil {
		return err
	}
	return jsonDump(w, g, a, whatIfAnnotations(ps), pool)
}

// FullJSON is JSONWithWhatIfPool with the huge-graph gate explicitly
// disabled: the caller asserts it really wants every node of an arbitrarily
// large graph (grainview -full-export).
func FullJSON(w io.Writer, g *core.Graph, a *highlight.Assessment, ps []whatif.Projection, pool *runpool.Runner) error {
	return jsonDump(w, g, a, whatIfAnnotations(ps), pool)
}

// DOTWithWhatIfPool writes the DOT rendering (see dotPool) with the
// ranked what-if projections as leading comment lines, so a `dot`-rendered
// file still carries the analysis that motivated it; ps may be nil. Graphs
// past MaxExportNodes are refused with a *HugeGraphError before anything
// is written; FullDOT is the explicit opt-in.
func DOTWithWhatIfPool(w io.Writer, g *core.Graph, a *highlight.Assessment, v View, ps []whatif.Projection, pool *runpool.Runner) error {
	if err := SizeGate(g, false); err != nil {
		return err
	}
	return dotWithWhatIf(w, g, a, v, ps, pool)
}

// FullDOT is DOTWithWhatIfPool with the huge-graph gate explicitly
// disabled (grainview -full-export).
func FullDOT(w io.Writer, g *core.Graph, a *highlight.Assessment, v View, ps []whatif.Projection, pool *runpool.Runner) error {
	return dotWithWhatIf(w, g, a, v, ps, pool)
}

// dotWithWhatIf is the ungated annotated-DOT emitter.
func dotWithWhatIf(w io.Writer, g *core.Graph, a *highlight.Assessment, v View, ps []whatif.Projection, pool *runpool.Runner) error {
	bw := bufio.NewWriter(w)
	for _, ann := range whatIfAnnotations(ps) {
		fmt.Fprintf(bw, "// what-if #%d: %s -> makespan %d (%.2fx", ann.Rank, ann.Hypothesis, ann.Makespan, ann.Speedup)
		if ann.Approximate {
			fmt.Fprintf(bw, ", approx")
		}
		fmt.Fprintf(bw, ")\n")
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return dotPool(w, g, a, v, pool)
}

func whatIfAnnotations(ps []whatif.Projection) []jsonWhatIf {
	if len(ps) == 0 {
		return nil
	}
	anns := make([]jsonWhatIf, len(ps))
	for i, p := range ps {
		anns[i] = jsonWhatIf{
			Rank: i + 1, Hypothesis: p.Label,
			Makespan: p.Makespan, Speedup: p.Speedup,
			Work: p.Work, Span: p.Span, Approximate: p.Approximate,
		}
	}
	return anns
}
