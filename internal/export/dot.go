package export

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"

	"graingraph/internal/core"
	"graingraph/internal/highlight"
	"graingraph/internal/runpool"
)

// dotPool writes the graph in Graphviz format with the same colour
// encoding as GraphML — handy for quick `dot -Tsvg` rendering without yEd.
// It is ungated (see DOTWithWhatIfPool and FullDOT). Node and edge
// emission shard across the pool: every line of the body depends only on
// its own node or edge row, so fixed chunks render into per-worker buffers
// concurrently and are assembled in chunk order — byte-identical output at
// every worker count, including the nil (serial) pool.
func dotPool(w io.Writer, g *core.Graph, a *highlight.Assessment, v View, pool *runpool.Runner) error {
	bw := bufio.NewWriter(w)
	defColors := DefinitionColors(g)

	fmt.Fprintf(bw, "digraph grains {\n")
	fmt.Fprintf(bw, "  label=%q; labelloc=t;\n", fmt.Sprintf("%s — %s view", g.Trace.Program, v))
	fmt.Fprintf(bw, "  rankdir=TB; node [style=filled, fontsize=8];\n")

	if err := emitSharded(bw, g.NumNodes(), exportGrain, pool, func(lo, hi int, buf *bytes.Buffer) {
		var line, label []byte
		for id := core.NodeID(lo); id < core.NodeID(hi); id++ {
			n := g.NodeRow(id)
			shape := "box"
			switch n.Kind {
			case core.NodeFork:
				shape = "diamond"
			case core.NodeJoin:
				shape = "ellipse"
			case core.NodeBookkeep:
				shape = "circle"
			}
			label = g.AppendLabel(label[:0], id)
			line = append(line[:0], "  n"...)
			line = strconv.AppendInt(line, int64(n.ID), 10)
			line = append(line, " [label="...)
			line = appendQuoted(line, label)
			line = append(line, ", shape="...)
			line = append(line, shape...)
			line = append(line, ", fillcolor="...)
			line = strconv.AppendQuote(line, NodeColor(g, n, a, v, defColors))
			if n.Critical {
				line = append(line, `, color="red", penwidth=2.5`...)
			}
			buf.Write(append(line, "];\n"...))
		}
	}); err != nil {
		return err
	}
	if err := emitSharded(bw, g.NumEdges(), exportGrain, pool, func(lo, hi int, buf *bytes.Buffer) {
		var line []byte
		for i := lo; i < hi; i++ {
			e := g.EdgeAt(i)
			color := edgeColor(e.Kind)
			width := 1.0
			if e.Critical {
				color = criticalColor
				width = 2.5
			}
			line = append(line[:0], "  n"...)
			line = strconv.AppendInt(line, int64(e.From), 10)
			line = append(line, " -> n"...)
			line = strconv.AppendInt(line, int64(e.To), 10)
			line = append(line, " [color="...)
			line = strconv.AppendQuote(line, color)
			line = append(line, ", penwidth="...)
			line = strconv.AppendFloat(line, width, 'f', 1, 64)
			buf.Write(append(line, "];\n"...))
		}
	}); err != nil {
		return err
	}
	fmt.Fprintf(bw, "}\n")
	return bw.Flush()
}

// appendQuoted appends s quoted as %q quotes it: in double quotes as it
// is when every byte is printable ASCII other than a quote or backslash,
// else escaped by strconv.
func appendQuoted(b, s []byte) []byte {
	for _, c := range s {
		if c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, string(s))
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
