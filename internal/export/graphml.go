package export

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"

	"graingraph/internal/core"
	"graingraph/internal/highlight"
	"graingraph/internal/runpool"
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
// FullGraphML is the explicit opt-in. Node and edge elements render across
// pool as DOT's lines do (nil runs serially), with identical bytes.
func GraphML(w io.Writer, g *core.Graph, a *highlight.Assessment, v View, pool *runpool.Runner) error {
	if err := SizeGate(g, false); err != nil {
		return err
	}
	return graphML(w, g, a, v, pool)
}

// FullGraphML is GraphML with the huge-graph gate explicitly disabled
// (grainview -full-export).
func FullGraphML(w io.Writer, g *core.Graph, a *highlight.Assessment, v View, pool *runpool.Runner) error {
	return graphML(w, g, a, v, pool)
}

// graphML is the ungated GraphML emitter. Each node and edge element is
// appended into its shard buffer.
func graphML(w io.Writer, g *core.Graph, a *highlight.Assessment, v View, pool *runpool.Runner) error {
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

	if err := emitSharded(bw, g.NumNodes(), exportGrain, pool, func(lo, hi int, buf *bytes.Buffer) {
		var b, text []byte
		for id := core.NodeID(lo); id < core.NodeID(hi); id++ {
			n := g.NodeRow(id)
			border, borderW := "#333333", 1.0
			if n.Critical {
				border, borderW = criticalColor, 2.5
			}
			shape := "rectangle"
			switch n.Kind {
			case core.NodeFork:
				shape = "diamond"
			case core.NodeJoin, core.NodeBookkeep:
				shape = "ellipse"
			}
			w, h := n.W, n.H
			if w == 0 {
				w, h = 30, 30
			}
			b = strconv.AppendInt(append(b[:0], `  <node id="n`...), int64(n.ID), 10)
			b = append(b, "\">\n   <data key=\"ng\"><y:ShapeNode><y:Geometry x=\""...)
			b = strconv.AppendFloat(b, n.X, 'f', 1, 64)
			b = strconv.AppendFloat(append(b, `" y="`...), n.Y, 'f', 1, 64)
			b = strconv.AppendFloat(append(b, `" width="`...), w, 'f', 1, 64)
			b = strconv.AppendFloat(append(b, `" height="`...), h, 'f', 1, 64)
			b = append(append(b, `"/><y:Fill color="`...), NodeColor(g, n, a, v, defColors)...)
			b = append(append(b, `"/><y:BorderStyle color="`...), border...)
			b = strconv.AppendFloat(append(b, `" width="`...), borderW, 'f', 1, 64)
			text = g.AppendLabel(text[:0], id)
			b = appendEscaped(append(b, `"/><y:NodeLabel fontSize="8">`...), text)
			b = append(append(b, `</y:NodeLabel><y:Shape type="`...), shape...)
			b = append(b, "\"/></y:ShapeNode></data>\n   <data key=\"grain\">"...)
			b = appendEscaped(b, n.Grain)
			b = append(append(b, "</data>\n   <data key=\"kind\">"...), n.Kind.String()...)
			text = appendDefKey(text[:0], g, n.Kind, n.GrainNum, n.Loop)
			b = appendEscaped(append(b, "</data>\n   <data key=\"loc\">"...), text)
			b = strconv.AppendUint(append(b, "</data>\n   <data key=\"exec\">"...), n.Weight, 10)
			b = strconv.AppendInt(append(b, "</data>\n   <data key=\"corekey\">"...), int64(n.Core), 10)
			b = append(b, "</data>\n"...)
			if a != nil && (n.Kind == core.NodeFragment || n.Kind == core.NodeChunk) {
				if row := assessmentOf(g, a, n); row >= 0 {
					rep := a.Report
					b = strconv.AppendFloat(append(b, `   <data key="pb">`...), finiteOr(rep.Benefit[row], 1e9), 'g', -1, 64)
					b = strconv.AppendFloat(append(b, "</data>\n   <data key=\"wd\">"...), rep.WorkDev[row], 'g', -1, 64)
					b = strconv.AppendInt(append(b, "</data>\n   <data key=\"ip\">"...), rep.Parallelism[row], 10)
					b = strconv.AppendInt(append(b, "</data>\n   <data key=\"sc\">"...), rep.Scatter[row], 10)
					b = strconv.AppendFloat(append(b, "</data>\n   <data key=\"mhu\">"...), finiteOr(rep.Util[row], 1e9), 'g', -1, 64)
					b = append(b, "</data>\n"...)
				}
			}
			buf.Write(append(b, "  </node>\n"...))
		}
	}); err != nil {
		return err
	}
	if err := emitSharded(bw, g.NumEdges(), exportGrain, pool, func(lo, hi int, buf *bytes.Buffer) {
		var b []byte
		for i := lo; i < hi; i++ {
			e := g.EdgeAt(i)
			color, width := edgeColor(e.Kind), 1.0
			if e.Critical {
				color, width = criticalColor, 2.5
			}
			b = strconv.AppendInt(append(b[:0], `  <edge id="e`...), int64(i), 10)
			b = strconv.AppendInt(append(b, `" source="n`...), int64(e.From), 10)
			b = strconv.AppendInt(append(b, `" target="n`...), int64(e.To), 10)
			b = append(b, "\">\n   <data key=\"eg\"><y:PolyLineEdge><y:LineStyle color=\""...)
			b = strconv.AppendFloat(append(append(b, color...), `" type="line" width="`...), width, 'f', 1, 64)
			b = append(b, "\"/><y:Arrows source=\"none\" target=\"standard\"/></y:PolyLineEdge></data>\n  </edge>\n"...)
			buf.Write(b)
		}
	}); err != nil {
		return err
	}

	fmt.Fprintln(bw, ` </graph>`)
	fmt.Fprintln(bw, `</graphml>`)
	return bw.Flush()
}

// appendEscaped appends s escaped as xml.EscapeText escapes it.
func appendEscaped[S ~string | ~[]byte](b []byte, s S) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\'' || c == '&' || c == '<' || c == '>' {
			w := byteWriter{b}
			_ = xml.EscapeText(&w, []byte(s)) // cannot fail on a byteWriter
			return w.b
		}
	}
	return append(b, s...)
}

func escape(s string) string { return string(appendEscaped(nil, s)) }

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
