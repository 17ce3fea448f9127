package export

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"

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
		for id := core.NodeID(lo); id < core.NodeID(hi); id++ {
			n := g.NodeAt(id)
			color := NodeColor(g, n, a, v, defColors)
			shape := "box"
			switch n.Kind {
			case core.NodeFork:
				shape = "diamond"
			case core.NodeJoin:
				shape = "ellipse"
			case core.NodeBookkeep:
				shape = "circle"
			}
			attrs := []string{
				fmt.Sprintf("label=%q", n.Label),
				fmt.Sprintf("shape=%s", shape),
				fmt.Sprintf("fillcolor=%q", color),
			}
			if n.Critical {
				attrs = append(attrs, `color="red"`, "penwidth=2.5")
			}
			fmt.Fprintf(buf, "  n%d [%s];\n", n.ID, strings.Join(attrs, ", "))
		}
	}); err != nil {
		return err
	}
	if err := emitSharded(bw, g.NumEdges(), exportGrain, pool, func(lo, hi int, buf *bytes.Buffer) {
		for i := lo; i < hi; i++ {
			e := g.EdgeAt(i)
			color := edgeColor(e.Kind)
			width := 1.0
			if e.Critical {
				color = criticalColor
				width = 2.5
			}
			fmt.Fprintf(buf, "  n%d -> n%d [color=%q, penwidth=%.1f];\n", e.From, e.To, color, width)
		}
	}); err != nil {
		return err
	}
	fmt.Fprintf(bw, "}\n")
	return bw.Flush()
}
