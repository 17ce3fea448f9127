package export

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"strings"
	"testing"

	"graingraph/internal/core"
	"graingraph/internal/highlight"
	"graingraph/internal/metrics"
	"graingraph/internal/profile"
	"graingraph/internal/rts"
	"graingraph/internal/runpool"
)

func testGraph(t *testing.T) (*core.Graph, *highlight.Assessment) {
	t.Helper()
	tr := rts.Run(rts.Config{Program: "exp", Cores: 2, Seed: 1}, func(c rts.Ctx) {
		c.Spawn(profile.Loc("a.go", 1, "tiny"), func(c rts.Ctx) { c.Compute(10) })
		c.Spawn(profile.Loc("a.go", 2, "big"), func(c rts.Ctx) { c.Compute(1_000_000) })
		c.TaskWait()
		c.For(profile.Loc("a.go", 3, "loop"), 0, 8,
			rts.ForOpt{Schedule: profile.ScheduleDynamic, Chunk: 2},
			func(c rts.Ctx, lo, hi int) { c.Compute(5000) })
	})
	g := core.Build(tr)
	rep := metrics.Analyze(tr, g, nil, metrics.Options{})
	a := highlight.EvaluateWith(rep, highlight.Defaults(2, 12), nil)
	core.Layout(g)
	return g, a
}

func TestGraphMLWellFormed(t *testing.T) {
	g, a := testGraph(t)
	var buf bytes.Buffer
	if err := GraphML(&buf, g, a, ViewParallelBenefit, nil); err != nil {
		t.Fatal(err)
	}
	// Must be parseable XML.
	dec := xml.NewDecoder(bytes.NewReader(buf.Bytes()))
	nodes, edges := 0, 0
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		if se, ok := tok.(xml.StartElement); ok {
			switch se.Name.Local {
			case "node":
				nodes++
			case "edge":
				edges++
			}
		}
	}
	if nodes != g.NumNodes() {
		t.Errorf("GraphML has %d nodes, graph has %d", nodes, g.NumNodes())
	}
	if edges != g.NumEdges() {
		t.Errorf("GraphML has %d edges, graph has %d", edges, g.NumEdges())
	}
	s := buf.String()
	for _, want := range []string{"y:ShapeNode", "y:Geometry", "y:Fill", "yworks.com"} {
		if !strings.Contains(s, want) {
			t.Errorf("GraphML missing %q", want)
		}
	}
}

func TestGraphMLProblemViewColors(t *testing.T) {
	g, a := testGraph(t)
	var buf bytes.Buffer
	if err := GraphML(&buf, g, a, ViewParallelBenefit, nil); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	// The tiny grain is problematic: some node must carry a heat colour
	// (#ffXX00), and non-problematic grains the dim colour.
	if !strings.Contains(s, highlight.DimColor) {
		t.Error("no dimmed nodes in problem view")
	}
	hasHeat := false
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, `<y:Fill color="#ff`) && strings.Contains(line, `00"/>`) {
			hasHeat = true
		}
	}
	if !hasHeat {
		t.Error("no heat-coloured nodes in problem view")
	}
}

func TestGraphMLEscapesLabels(t *testing.T) {
	tr := rts.Run(rts.Config{Program: "esc", Cores: 1, Seed: 1}, func(c rts.Ctx) {
		c.Spawn(profile.Loc("x.go", 1, "a<b&c>"), func(c rts.Ctx) { c.Compute(10) })
		c.TaskWait()
	})
	g := core.Build(tr)
	var buf bytes.Buffer
	if err := GraphML(&buf, g, nil, ViewStructure, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := parseAllXML(buf.Bytes()); err != nil {
		t.Fatalf("GraphML with special chars not well-formed: %v", err)
	}
}

func parseAllXML(b []byte) (int, error) {
	dec := xml.NewDecoder(bytes.NewReader(b))
	n := 0
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return n, nil
			}
			return n, err
		}
		n++
	}
}

func TestDOTOutput(t *testing.T) {
	g, a := testGraph(t)
	var buf bytes.Buffer
	if err := DOTWithWhatIfPool(&buf, g, a, ViewStructure, nil, nil); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "digraph grains {") || !strings.HasSuffix(strings.TrimSpace(s), "}") {
		t.Error("DOT output not a digraph block")
	}
	if strings.Count(s, "->") != g.NumEdges() {
		t.Errorf("DOT edge count = %d, want %d", strings.Count(s, "->"), g.NumEdges())
	}
}

func TestJSONRoundTrips(t *testing.T) {
	g, a := testGraph(t)
	var buf bytes.Buffer
	if err := JSONWithWhatIfPool(&buf, g, a, nil, nil); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Program string `json:"program"`
		Cores   int    `json:"cores"`
		Nodes   []struct {
			Kind     string `json:"kind"`
			Grain    string `json:"grain"`
			Problems string `json:"problems"`
		} `json:"nodes"`
		Edges []struct {
			Kind string `json:"kind"`
		} `json:"edges"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("JSON not parseable: %v", err)
	}
	if out.Program != "exp" || out.Cores != 2 {
		t.Errorf("JSON header = %+v", out)
	}
	if len(out.Nodes) != g.NumNodes() || len(out.Edges) != g.NumEdges() {
		t.Errorf("JSON sizes: %d/%d nodes, %d/%d edges",
			len(out.Nodes), g.NumNodes(), len(out.Edges), g.NumEdges())
	}
}

func TestDefinitionColorsDeterministic(t *testing.T) {
	g, _ := testGraph(t)
	c1 := DefinitionColors(g)
	c2 := DefinitionColors(g)
	if len(c1) < 3 { // root, tiny, big, loop
		t.Errorf("definitions found = %d", len(c1))
	}
	for k, v := range c1 {
		if c2[k] != v {
			t.Errorf("colour for %s differs between calls", k)
		}
	}
}

func TestStructuralNodeColors(t *testing.T) {
	g, a := testGraph(t)
	defc := DefinitionColors(g)
	sawFork, sawJoin, sawBk := false, false, false
	for id := core.NodeID(0); id < core.NodeID(g.NumNodes()); id++ {
		n := g.NodeAt(id)
		c := NodeColor(g, n, a, ViewStructure, defc)
		switch n.Kind {
		case core.NodeFork:
			sawFork = true
			if c != forkColor {
				t.Errorf("fork colour = %s", c)
			}
		case core.NodeJoin:
			sawJoin = true
			if c != joinColor {
				t.Errorf("join colour = %s", c)
			}
		case core.NodeBookkeep:
			sawBk = true
			if c != bookkeepColor {
				t.Errorf("bookkeep colour = %s", c)
			}
		}
	}
	if !sawFork || !sawJoin || !sawBk {
		t.Error("test graph lacks structural node kinds")
	}
}

func TestCriticalView(t *testing.T) {
	g, a := testGraph(t)
	rep := a.Report
	_ = rep
	// Critical flags were set by Analyze (via CriticalPath).
	defc := DefinitionColors(g)
	crit, dim := 0, 0
	for id := core.NodeID(0); id < core.NodeID(g.NumNodes()); id++ {
		n := g.NodeAt(id)
		if n.Kind != core.NodeFragment && n.Kind != core.NodeChunk {
			continue
		}
		switch NodeColor(g, n, a, ViewCritical, defc) {
		case criticalColor:
			crit++
		case highlight.DimColor:
			dim++
		}
	}
	if crit == 0 {
		t.Error("no critical grains in critical view")
	}
	if dim == 0 {
		t.Error("no dimmed grains in critical view")
	}
}

func TestViewStrings(t *testing.T) {
	views := []View{ViewStructure, ViewParallelBenefit, ViewWorkInflation,
		ViewParallelism, ViewScatter, ViewUtilization, ViewCritical}
	seen := map[string]bool{}
	for _, v := range views {
		s := v.String()
		if s == "" || seen[s] {
			t.Errorf("view %d name %q empty or duplicate", int(v), s)
		}
		seen[s] = true
	}
}

// TestExportersByteStable: exporting the same analyzed graph twice must
// produce identical bytes in every format — no map-iteration order may
// leak into the output.
func TestExportersByteStable(t *testing.T) {
	g, a := testGraph(t)
	formats := map[string]func(*bytes.Buffer) error{
		"graphml": func(b *bytes.Buffer) error { return GraphML(b, g, a, ViewParallelBenefit, nil) },
		"dot":     func(b *bytes.Buffer) error { return DOTWithWhatIfPool(b, g, a, ViewParallelism, nil, nil) },
		"json":    func(b *bytes.Buffer) error { return JSONWithWhatIfPool(b, g, a, nil, nil) },
	}
	for name, f := range formats {
		var b1, b2 bytes.Buffer
		if err := f(&b1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := f(&b2); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Errorf("%s output not byte-stable across exports", name)
		}
	}
}

// TestDOTLinesMatchFormat pins the DOT body, which appends each node's
// and edge's line into its shard buffer, byte for byte to the fmt verbs it
// replaced (%q labels and colours, %.1f pen widths): on a built graph,
// whose labels are derived, and on a copy that stores labels %q must
// escape — quotes, backslashes, control bytes, non-ASCII and invalid
// UTF-8.
func TestDOTLinesMatchFormat(t *testing.T) {
	g, a := testGraph(t)
	odd := []string{`say "hi"`, `C:\dir`, "tab\there", "naïve", "bad\xffbyte", "", "plain/3"}
	stored := core.NewGraph(g.Trace)
	for n := core.NodeID(0); n < core.NodeID(g.NumNodes()); n++ {
		nd := g.NodeAt(n)
		nd.Label = odd[int(n)%len(odd)]
		stored.AddNodeNum(nd)
	}
	for i := 0; i < g.NumEdges(); i++ {
		stored.AddEdge(g.EdgeFrom(i), g.EdgeTo(i), g.EdgeKindAt(i))
	}
	for _, tc := range []struct {
		name string
		g    *core.Graph
	}{{"built", g}, {"stored labels", stored}} {
		for _, v := range []View{ViewStructure, ViewCritical, ViewParallelBenefit} {
			var buf bytes.Buffer
			if err := DOTWithWhatIfPool(&buf, tc.g, a, v, nil, nil); err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitAfter(buf.String(), "\n")
			body := strings.Join(lines[3:len(lines)-2], "")
			if want := formattedDOTBody(tc.g, a, v); body != want {
				t.Fatalf("%s, %s view: DOT body differs from the formatted one:\n%s\nwant:\n%s", tc.name, v, body, want)
			}
		}
	}
}

// formattedDOTBody renders the node and edge lines of a DOT export with
// fmt, as the exporter once did.
func formattedDOTBody(g *core.Graph, a *highlight.Assessment, v View) string {
	defColors := DefinitionColors(g)
	var b strings.Builder
	for id := core.NodeID(0); id < core.NodeID(g.NumNodes()); id++ {
		n := g.NodeAt(id)
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
			fmt.Sprintf("fillcolor=%q", NodeColor(g, n, a, v, defColors)),
		}
		if n.Critical {
			attrs = append(attrs, `color="red"`, "penwidth=2.5")
		}
		fmt.Fprintf(&b, "  n%d [%s];\n", n.ID, strings.Join(attrs, ", "))
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.EdgeAt(i)
		color, width := edgeColor(e.Kind), 1.0
		if e.Critical {
			color, width = criticalColor, 2.5
		}
		fmt.Fprintf(&b, "  n%d -> n%d [color=%q, penwidth=%.1f];\n", e.From, e.To, color, width)
	}
	return b.String()
}

// TestGraphMLMatchesFormat pins the GraphML export, which appends each
// node and edge element into its shard buffer, byte for byte to the
// fmt.Fprintf calls it replaced: on a built graph, whose labels are
// derived, and on a copy that stores labels and hand-named grains the XML
// escaping must handle — quotes, ampersands, angle brackets, control
// bytes, non-ASCII and invalid UTF-8 — serially and across a pool.
func TestGraphMLMatchesFormat(t *testing.T) {
	g, a := testGraph(t)
	odd := []string{`say "hi"`, `a<b>&c`, "it's", "tab\there", "naïve", "bad\xffbyte", "", "plain/3"}
	stored := core.NewGraph(g.Trace)
	for n := core.NodeID(0); n < core.NodeID(g.NumNodes()); n++ {
		nd := g.NodeAt(n)
		nd.Label = odd[int(n)%len(odd)]
		stored.AddNodeNum(nd)
	}
	for i := 0; i < g.NumEdges(); i++ {
		stored.AddEdge(g.EdgeFrom(i), g.EdgeTo(i), g.EdgeKindAt(i))
	}
	for i, name := range odd {
		stored.AddNode(core.Node{Kind: core.NodeFragment, Grain: profile.GrainID("R.x" + name), Label: name, Weight: profile.Time(i)})
	}
	core.Layout(stored)
	for _, tc := range []struct {
		name string
		g    *core.Graph
	}{{"built", g}, {"stored labels", stored}} {
		for _, v := range []View{ViewStructure, ViewCritical, ViewParallelBenefit} {
			want := formattedGraphML(tc.g, a, v)
			for _, pool := range []*runpool.Runner{nil, runpool.New(2)} {
				var buf bytes.Buffer
				if err := GraphML(&buf, tc.g, a, v, pool); err != nil {
					t.Fatal(err)
				}
				if got := buf.String(); got != want {
					t.Fatalf("%s, %s view: GraphML differs from the formatted one:\n%s\nwant:\n%s", tc.name, v, got, want)
				}
			}
		}
	}
}

// formattedGraphML renders a GraphML export with fmt, as the exporter once
// did.
func formattedGraphML(g *core.Graph, a *highlight.Assessment, v View) string {
	var bw strings.Builder
	defColors := DefinitionColors(g)
	esc := func(s string) string {
		var b strings.Builder
		_ = xml.EscapeText(&b, []byte(s))
		return b.String()
	}
	fmt.Fprint(&bw, xml.Header)
	fmt.Fprintln(&bw, `<graphml xmlns="http://graphml.graphdrawing.org/xmlns"`)
	fmt.Fprintln(&bw, `  xmlns:y="http://www.yworks.com/xml/graphml"`)
	fmt.Fprintln(&bw, `  xmlns:yed="http://www.yworks.com/xml/yed/3">`)
	fmt.Fprintln(&bw, ` <key for="node" id="ng" yfiles.type="nodegraphics"/>`)
	fmt.Fprintln(&bw, ` <key for="edge" id="eg" yfiles.type="edgegraphics"/>`)
	fmt.Fprintln(&bw, ` <key for="node" id="grain" attr.name="grain" attr.type="string"/>`)
	fmt.Fprintln(&bw, ` <key for="node" id="kind" attr.name="kind" attr.type="string"/>`)
	fmt.Fprintln(&bw, ` <key for="node" id="loc" attr.name="source" attr.type="string"/>`)
	fmt.Fprintln(&bw, ` <key for="node" id="exec" attr.name="exec_cycles" attr.type="long"/>`)
	fmt.Fprintln(&bw, ` <key for="node" id="corekey" attr.name="core" attr.type="int"/>`)
	fmt.Fprintln(&bw, ` <key for="node" id="pb" attr.name="parallel_benefit" attr.type="double"/>`)
	fmt.Fprintln(&bw, ` <key for="node" id="wd" attr.name="work_deviation" attr.type="double"/>`)
	fmt.Fprintln(&bw, ` <key for="node" id="ip" attr.name="inst_parallelism" attr.type="int"/>`)
	fmt.Fprintln(&bw, ` <key for="node" id="sc" attr.name="scatter" attr.type="int"/>`)
	fmt.Fprintln(&bw, ` <key for="node" id="mhu" attr.name="mem_hierarchy_util" attr.type="double"/>`)
	fmt.Fprintf(&bw, ` <graph id="%s" edgedefault="directed">%s`, esc(v.String()), "\n")
	for id := core.NodeID(0); id < core.NodeID(g.NumNodes()); id++ {
		n := g.NodeAt(id)
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
		fmt.Fprintf(&bw, `  <node id="n%d">`+"\n", n.ID)
		fmt.Fprintf(&bw, `   <data key="ng"><y:ShapeNode>`)
		fmt.Fprintf(&bw, `<y:Geometry x="%.1f" y="%.1f" width="%.1f" height="%.1f"/>`, n.X, n.Y, w, h)
		fmt.Fprintf(&bw, `<y:Fill color="%s"/>`, NodeColor(g, n, a, v, defColors))
		fmt.Fprintf(&bw, `<y:BorderStyle color="%s" width="%.1f"/>`, border, borderW)
		fmt.Fprintf(&bw, `<y:NodeLabel fontSize="8">%s</y:NodeLabel>`, esc(n.Label))
		fmt.Fprintf(&bw, `<y:Shape type="%s"/>`, shape)
		fmt.Fprintf(&bw, `</y:ShapeNode></data>`+"\n")
		fmt.Fprintf(&bw, `   <data key="grain">%s</data>`+"\n", esc(string(n.Grain)))
		fmt.Fprintf(&bw, `   <data key="kind">%s</data>`+"\n", n.Kind)
		fmt.Fprintf(&bw, `   <data key="loc">%s</data>`+"\n", esc(defKeyOf(g, n.Kind, n.GrainNum, n.Loop)))
		fmt.Fprintf(&bw, `   <data key="exec">%d</data>`+"\n", n.Weight)
		fmt.Fprintf(&bw, `   <data key="corekey">%d</data>`+"\n", n.Core)
		if a != nil && (n.Kind == core.NodeFragment || n.Kind == core.NodeChunk) {
			if row := assessmentOf(g, a, n); row >= 0 {
				rep := a.Report
				fmt.Fprintf(&bw, `   <data key="pb">%g</data>`+"\n", finiteOr(rep.Benefit[row], 1e9))
				fmt.Fprintf(&bw, `   <data key="wd">%g</data>`+"\n", rep.WorkDev[row])
				fmt.Fprintf(&bw, `   <data key="ip">%d</data>`+"\n", rep.Parallelism[row])
				fmt.Fprintf(&bw, `   <data key="sc">%d</data>`+"\n", rep.Scatter[row])
				fmt.Fprintf(&bw, `   <data key="mhu">%g</data>`+"\n", finiteOr(rep.Util[row], 1e9))
			}
		}
		fmt.Fprintln(&bw, `  </node>`)
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.EdgeAt(i)
		color, width := edgeColor(e.Kind), 1.0
		if e.Critical {
			color, width = criticalColor, 2.5
		}
		fmt.Fprintf(&bw, `  <edge id="e%d" source="n%d" target="n%d">`+"\n", i, e.From, e.To)
		fmt.Fprintf(&bw, `   <data key="eg"><y:PolyLineEdge><y:LineStyle color="%s" type="line" width="%.1f"/>`, color, width)
		fmt.Fprintf(&bw, `<y:Arrows source="none" target="standard"/></y:PolyLineEdge></data>`+"\n")
		fmt.Fprintln(&bw, `  </edge>`)
	}
	fmt.Fprintln(&bw, ` </graph>`)
	fmt.Fprintln(&bw, `</graphml>`)
	return bw.String()
}
