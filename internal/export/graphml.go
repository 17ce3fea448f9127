package export

import (
	"bufio"
	"encoding/xml"
	"fmt"
	"io"

	"graingraph/internal/core"
	"graingraph/internal/highlight"
)

// GraphML writes the graph as yEd-flavoured GraphML: node geometry from the
// layout, fill colours from the view, per-node data attributes carrying the
// grain identity and metrics so clicking a grain in the viewer shows its
// timing, source location and properties (paper §4.2 workflow).
//
// Call core.Layout(g) first if node positions matter; un-laid-out graphs
// still load, with yEd able to re-layout them.
//
// Graphs past MaxExportNodes are refused with a *HugeGraphError;
// FullGraphML is the explicit opt-in.
func GraphML(w io.Writer, g *core.Graph, a *highlight.Assessment, v View) error {
	if err := SizeGate(g, false); err != nil {
		return err
	}
	return graphML(w, g, a, v)
}

// FullGraphML is GraphML with the huge-graph gate explicitly disabled
// (grainview -full-export).
func FullGraphML(w io.Writer, g *core.Graph, a *highlight.Assessment, v View) error {
	return graphML(w, g, a, v)
}

// graphML is the ungated GraphML emitter.
func graphML(w io.Writer, g *core.Graph, a *highlight.Assessment, v View) error {
	bw := bufio.NewWriter(w)
	defColors := DefinitionColors(g)

	fmt.Fprint(bw, xml.Header)
	fmt.Fprintln(bw, `<graphml xmlns="http://graphml.graphdrawing.org/xmlns"`)
	fmt.Fprintln(bw, `  xmlns:y="http://www.yworks.com/xml/graphml"`)
	fmt.Fprintln(bw, `  xmlns:yed="http://www.yworks.com/xml/yed/3">`)
	fmt.Fprintln(bw, ` <key for="node" id="ng" yfiles.type="nodegraphics"/>`)
	fmt.Fprintln(bw, ` <key for="edge" id="eg" yfiles.type="edgegraphics"/>`)
	fmt.Fprintln(bw, ` <key for="node" id="grain" attr.name="grain" attr.type="string"/>`)
	fmt.Fprintln(bw, ` <key for="node" id="kind" attr.name="kind" attr.type="string"/>`)
	fmt.Fprintln(bw, ` <key for="node" id="loc" attr.name="source" attr.type="string"/>`)
	fmt.Fprintln(bw, ` <key for="node" id="exec" attr.name="exec_cycles" attr.type="long"/>`)
	fmt.Fprintln(bw, ` <key for="node" id="corekey" attr.name="core" attr.type="int"/>`)
	fmt.Fprintln(bw, ` <key for="node" id="pb" attr.name="parallel_benefit" attr.type="double"/>`)
	fmt.Fprintln(bw, ` <key for="node" id="wd" attr.name="work_deviation" attr.type="double"/>`)
	fmt.Fprintln(bw, ` <key for="node" id="ip" attr.name="inst_parallelism" attr.type="int"/>`)
	fmt.Fprintln(bw, ` <key for="node" id="sc" attr.name="scatter" attr.type="int"/>`)
	fmt.Fprintln(bw, ` <key for="node" id="mhu" attr.name="mem_hierarchy_util" attr.type="double"/>`)
	fmt.Fprintf(bw, ` <graph id="%s" edgedefault="directed">%s`, escape(v.String()), "\n")

	var label []byte
	for id := core.NodeID(0); id < core.NodeID(g.NumNodes()); id++ {
		n := g.NodeRow(id)
		color := NodeColor(g, n, a, v, defColors)
		border := "#333333"
		borderW := 1.0
		if n.Critical {
			border = criticalColor
			borderW = 2.5
		}
		shape := "rectangle"
		switch n.Kind {
		case core.NodeFork:
			shape = "diamond"
		case core.NodeJoin:
			shape = "ellipse"
		case core.NodeBookkeep:
			shape = "ellipse"
		}
		w, h := n.W, n.H
		if w == 0 {
			w, h = 30, 30
		}
		fmt.Fprintf(bw, `  <node id="n%d">`+"\n", n.ID)
		fmt.Fprintf(bw, `   <data key="ng"><y:ShapeNode>`)
		fmt.Fprintf(bw, `<y:Geometry x="%.1f" y="%.1f" width="%.1f" height="%.1f"/>`, n.X, n.Y, w, h)
		fmt.Fprintf(bw, `<y:Fill color="%s"/>`, color)
		fmt.Fprintf(bw, `<y:BorderStyle color="%s" width="%.1f"/>`, border, borderW)
		label = g.AppendLabel(label[:0], id)
		bw.WriteString(`<y:NodeLabel fontSize="8">`)
		_ = xml.EscapeText(bw, label) // a write error resurfaces at Flush
		bw.WriteString(`</y:NodeLabel>`)
		fmt.Fprintf(bw, `<y:Shape type="%s"/>`, shape)
		fmt.Fprintf(bw, `</y:ShapeNode></data>`+"\n")
		fmt.Fprintf(bw, `   <data key="grain">%s</data>`+"\n", escape(string(n.Grain)))
		fmt.Fprintf(bw, `   <data key="kind">%s</data>`+"\n", n.Kind)
		fmt.Fprintf(bw, `   <data key="loc">%s</data>`+"\n", escape(defKeyOf(g, n.Kind, n.GrainNum, n.Loop)))
		fmt.Fprintf(bw, `   <data key="exec">%d</data>`+"\n", n.Weight)
		fmt.Fprintf(bw, `   <data key="corekey">%d</data>`+"\n", n.Core)
		if a != nil && (n.Kind == core.NodeFragment || n.Kind == core.NodeChunk) {
			if row := assessmentOf(g, a, n); row >= 0 {
				rep := a.Report
				fmt.Fprintf(bw, `   <data key="pb">%g</data>`+"\n", finiteOr(rep.Benefit[row], 1e9))
				fmt.Fprintf(bw, `   <data key="wd">%g</data>`+"\n", rep.WorkDev[row])
				fmt.Fprintf(bw, `   <data key="ip">%d</data>`+"\n", rep.Parallelism[row])
				fmt.Fprintf(bw, `   <data key="sc">%d</data>`+"\n", rep.Scatter[row])
				fmt.Fprintf(bw, `   <data key="mhu">%g</data>`+"\n", finiteOr(rep.Util[row], 1e9))
			}
		}
		fmt.Fprintln(bw, `  </node>`)
	}

	for i := 0; i < g.NumEdges(); i++ {
		e := g.EdgeAt(i)
		color := edgeColor(e.Kind)
		width := 1.0
		if e.Critical {
			color = criticalColor
			width = 2.5
		}
		fmt.Fprintf(bw, `  <edge id="e%d" source="n%d" target="n%d">`+"\n", i, e.From, e.To)
		fmt.Fprintf(bw, `   <data key="eg"><y:PolyLineEdge><y:LineStyle color="%s" type="line" width="%.1f"/>`, color, width)
		fmt.Fprintf(bw, `<y:Arrows source="none" target="standard"/></y:PolyLineEdge></data>`+"\n")
		fmt.Fprintln(bw, `  </edge>`)
	}

	fmt.Fprintln(bw, ` </graph>`)
	fmt.Fprintln(bw, `</graphml>`)
	return bw.Flush()
}

func escape(s string) string {
	b := &byteWriter{}
	_ = xml.EscapeText(b, []byte(s)) // cannot fail on a byteWriter
	return string(b.b)
}

type byteWriter struct{ b []byte }

func (w *byteWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// finiteOr replaces +Inf/NaN with a sentinel so XML/JSON stay parseable.
func finiteOr(v, sentinel float64) float64 {
	if v != v || v > 1e300 || v < -1e300 {
		return sentinel
	}
	return v
}
