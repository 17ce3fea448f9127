// Package export renders grain graphs to GraphML (viewable in yEd and
// Cytoscape, the viewers the paper uses), Graphviz DOT, and JSON.
//
// A View selects what grain colours encode, mirroring the paper's
// multi-view workflow: the structure view colours grains by source
// definition; each problem view highlights threshold-crossing grains on a
// red-to-yellow severity gradient and dims everything else; the critical
// view marks the critical path.
package export

import (
	"fmt"
	"strconv"

	"graingraph/internal/core"
	"graingraph/internal/highlight"
	"graingraph/internal/profile"
)

// View selects the colour encoding of grain nodes.
type View int

const (
	// ViewStructure colours grains by their source definition.
	ViewStructure View = iota
	// ViewParallelBenefit highlights grains with parallel benefit < 1.
	ViewParallelBenefit
	// ViewWorkInflation highlights grains with problematic work deviation.
	ViewWorkInflation
	// ViewParallelism highlights grains executing under low instantaneous
	// parallelism.
	ViewParallelism
	// ViewScatter highlights grains whose siblings are scattered.
	ViewScatter
	// ViewUtilization highlights grains with poor memory-hierarchy
	// utilization.
	ViewUtilization
	// ViewCritical highlights the critical path.
	ViewCritical
)

// String names the view.
func (v View) String() string {
	switch v {
	case ViewStructure:
		return "structure"
	case ViewParallelBenefit:
		return "parallel-benefit"
	case ViewWorkInflation:
		return "work-inflation"
	case ViewParallelism:
		return "instantaneous-parallelism"
	case ViewScatter:
		return "scatter"
	case ViewUtilization:
		return "memory-hierarchy-utilization"
	case ViewCritical:
		return "critical-path"
	default:
		return fmt.Sprintf("View(%d)", int(v))
	}
}

// problem returns the highlight problem a view encodes (ok=false for
// structure/critical views).
func (v View) problem() (highlight.Problem, bool) {
	switch v {
	case ViewParallelBenefit:
		return highlight.LowParallelBenefit, true
	case ViewWorkInflation:
		return highlight.WorkInflation, true
	case ViewParallelism:
		return highlight.LowParallelism, true
	case ViewScatter:
		return highlight.HighScatter, true
	case ViewUtilization:
		return highlight.PoorUtilization, true
	default:
		return 0, false
	}
}

// Structural colours, matching the paper's drawing conventions.
const (
	forkColor     = "#66cc66" // green fork nodes
	joinColor     = "#ff9933" // orange join nodes
	bookkeepColor = "#40e0d0" // turquoise book-keeping nodes
	criticalColor = "#ff0000"
)

// definitionPalette colours grains per source definition in the structure
// view (light-green/orange/magenta etc., like Figure 6a).
var definitionPalette = []string{
	"#90ee90", // light green
	"#ffa500", // orange
	"#ff00ff", // magenta
	"#87cefa", // light blue
	"#ffd700", // gold
	"#dda0dd", // plum
	"#00ced1", // dark turquoise
	"#fa8072", // salmon
	"#9acd32", // yellow green
	"#c0c0c0", // silver
	"#f08080", // light coral
	"#66cdaa", // aquamarine
}

// NodeColor resolves the fill colour of a node under the given view.
// The assessment may be nil for pure structure rendering.
func NodeColor(g *core.Graph, n core.Node, a *highlight.Assessment, v View,
	defColors map[string]string) string {

	switch n.Kind {
	case core.NodeFork:
		return forkColor
	case core.NodeJoin:
		return joinColor
	case core.NodeBookkeep:
		return bookkeepColor
	}
	// Fragment / chunk.
	switch v {
	case ViewStructure:
		var key [64]byte
		return defColors[string(appendDefKey(key[:0], g, n.Kind, n.GrainNum, n.Loop))]
	case ViewCritical:
		if n.Critical {
			return criticalColor
		}
		return highlight.DimColor
	default:
		p, ok := v.problem()
		if !ok || a == nil {
			return highlight.DimColor
		}
		row := assessmentOf(g, a, n)
		if row < 0 {
			return highlight.DimColor
		}
		if sev, flagged := a.Severity(row, p); flagged {
			return highlight.HeatColor(sev)
		}
		return highlight.DimColor
	}
}

// assessmentOf returns a's row for node n's grain, or -1. An assessment
// of the graph's own trace — every real rendering — shares the graph's
// grain numbers; any other is matched by ID.
func assessmentOf(g *core.Graph, a *highlight.Assessment, n core.Node) int {
	if a.Report.Trace == g.Trace {
		if row := a.Row(n.GrainNum); row >= 0 {
			return row
		}
	}
	return a.Get(n.Grain)
}

// defKeyOf returns the source-definition key of a grain node, from the
// node's kind, grain number and loop columns.
func defKeyOf(g *core.Graph, kind core.NodeKind, num int32, loop profile.LoopID) string {
	return string(appendDefKey(nil, g, kind, num, loop))
}

// appendDefKey appends the key defKeyOf returns.
func appendDefKey(b []byte, g *core.Graph, kind core.NodeKind, num int32, loop profile.LoopID) []byte {
	if kind == core.NodeChunk {
		if l := g.Trace.Loop(loop); l != nil {
			return l.Loc.Append(b)
		}
		return strconv.AppendInt(append(b, "loop:"...), int64(loop), 10)
	}
	if int(num) < len(g.Trace.Tasks) {
		return g.Trace.Tasks[num].Loc.Append(b)
	}
	return append(b, g.GrainID(num)...)
}

// DefinitionColors assigns a palette colour to every source definition in
// the graph, in first-appearance order (deterministic).
func DefinitionColors(g *core.Graph) map[string]string {
	colors := make(map[string]string)
	i := 0
	for id := core.NodeID(0); id < core.NodeID(g.NumNodes()); id++ {
		k := g.Kind(id)
		if k != core.NodeFragment && k != core.NodeChunk {
			continue
		}
		key := defKeyOf(g, k, g.GrainNum(id), g.Loop(id))
		if _, ok := colors[key]; !ok {
			colors[key] = definitionPalette[i%len(definitionPalette)]
			i++
		}
	}
	return colors
}

func edgeColor(k core.EdgeKind) string {
	switch k {
	case core.EdgeCreation:
		return "#2e8b22"
	case core.EdgeJoin:
		return "#ff8c00"
	default:
		return "#000000"
	}
}
