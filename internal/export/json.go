package export

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"graingraph/internal/core"
	"graingraph/internal/highlight"
	"graingraph/internal/runpool"
)

// jsonGraph is the machine-readable dump schema. The emitter below writes
// it field by field (header serially, the nodes/edges arrays sharded), but
// the bytes are exactly what a json.Encoder with SetIndent("", " ") would
// produce for this struct — the round-trip tests decode into it.
type jsonGraph struct {
	Program  string       `json:"program"`
	Cores    int          `json:"cores"`
	Makespan uint64       `json:"makespan"`
	Nodes    []jsonNode   `json:"nodes"`
	Edges    []jsonEdge   `json:"edges"`
	WhatIf   []jsonWhatIf `json:"whatif,omitempty"`
}

type jsonNode struct {
	ID       int     `json:"id"`
	Kind     string  `json:"kind"`
	Grain    string  `json:"grain"`
	Label    string  `json:"label"`
	Source   string  `json:"source"`
	Start    uint64  `json:"start"`
	End      uint64  `json:"end"`
	Weight   uint64  `json:"weight"`
	Core     int     `json:"core"`
	Members  int     `json:"members"`
	Critical bool    `json:"critical"`
	Problems string  `json:"problems,omitempty"`
	PB       float64 `json:"parallel_benefit,omitempty"`
	WD       float64 `json:"work_deviation,omitempty"`
	IP       int     `json:"inst_parallelism,omitempty"`
	Scatter  int     `json:"scatter,omitempty"`
	MHU      float64 `json:"mem_hierarchy_util,omitempty"`
}

type jsonEdge struct {
	From     int    `json:"from"`
	To       int    `json:"to"`
	Kind     string `json:"kind"`
	Critical bool   `json:"critical"`
}

// jsonElem renders one array element exactly as the document encoder
// would: the element object of an array nested one level deep, indented by
// one space per level.
func jsonElem(buf *bytes.Buffer, v any) error {
	b, err := json.MarshalIndent(v, "  ", " ")
	if err != nil {
		return err
	}
	buf.WriteString("  ")
	buf.Write(b)
	return nil
}

// jsonArray writes a full array field ("null" for nil-equivalent empty
// arrays, matching encoding/json), sharding element rendering across pool.
// render fills buf with element i's object (no separators); separators and
// brackets are placed here so each chunk stays position-independent.
func jsonArray(bw *bufio.Writer, n int, pool *runpool.Runner,
	render func(i int, buf *bytes.Buffer) error) error {

	if n == 0 {
		_, err := bw.WriteString("null")
		return err
	}
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	var renderErr error
	if err := emitSharded(bw, n, exportGrain, pool, func(lo, hi int, buf *bytes.Buffer) {
		for i := lo; i < hi; i++ {
			if err := render(i, buf); err != nil {
				renderErr = err
				return
			}
			if i != n-1 {
				buf.WriteString(",\n")
			} else {
				buf.WriteString("\n")
			}
		}
	}); err != nil {
		return err
	}
	if renderErr != nil {
		return renderErr
	}
	_, err := bw.WriteString(" ]")
	return err
}

func jsonDump(w io.Writer, g *core.Graph, a *highlight.Assessment, anns []jsonWhatIf, pool *runpool.Runner) error {
	bw := bufio.NewWriter(w)

	program, err := json.Marshal(g.Trace.Program)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "{\n \"program\": %s,\n \"cores\": %d,\n \"makespan\": %d,\n \"nodes\": ",
		program, g.Trace.Cores, g.Trace.Makespan())

	if err := jsonArray(bw, g.NumNodes(), pool, func(i int, buf *bytes.Buffer) error {
		return jsonElem(buf, jsonNodeRow(g, core.NodeID(i), a))
	}); err != nil {
		return err
	}

	bw.WriteString(",\n \"edges\": ")
	if err := jsonArray(bw, g.NumEdges(), pool, func(i int, buf *bytes.Buffer) error {
		e := g.EdgeAt(i)
		return jsonElem(buf, jsonEdge{
			From: int(e.From), To: int(e.To), Kind: e.Kind.String(), Critical: e.Critical,
		})
	}); err != nil {
		return err
	}

	// The what-if section is tiny (top-N projections): serial emission.
	if len(anns) > 0 {
		bw.WriteString(",\n \"whatif\": ")
		if err := jsonArray(bw, len(anns), nil, func(i int, buf *bytes.Buffer) error {
			return jsonElem(buf, anns[i])
		}); err != nil {
			return err
		}
	}
	bw.WriteString("\n}\n")
	return bw.Flush()
}

// jsonNodeRow materializes node n's dump row from the graph columns and the
// (read-only) assessment.
func jsonNodeRow(g *core.Graph, id core.NodeID, a *highlight.Assessment) jsonNode {
	n := g.NodeAt(id)
	jn := jsonNode{
		ID: int(n.ID), Kind: n.Kind.String(), Grain: string(n.Grain),
		Label: n.Label, Source: defKeyOf(g, n.Kind, n.GrainNum, n.Loop),
		Start: n.Start, End: n.End, Weight: n.Weight,
		Core: n.Core, Members: n.Members, Critical: n.Critical,
	}
	if a != nil && (n.Kind == core.NodeFragment || n.Kind == core.NodeChunk) {
		if row := assessmentOf(g, a, n); row >= 0 {
			rep := a.Report
			jn.Problems = a.Mask[row].String()
			jn.PB = finiteOr(rep.Benefit[row], 1e9)
			jn.WD = rep.WorkDev[row]
			jn.IP = int(rep.Parallelism[row])
			jn.Scatter = int(rep.Scatter[row])
			jn.MHU = finiteOr(rep.Util[row], 1e9)
		}
	}
	return jn
}
