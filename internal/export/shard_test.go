package export

import (
	"bytes"
	"encoding/json"
	"testing"

	"graingraph/internal/core"
	"graingraph/internal/runpool"
)

// TestJSONMatchesEncoder pins the sharded emitter to the reference bytes: a
// plain json.Encoder with SetIndent("", " ") over the jsonGraph struct. Any
// drift in the hand-written header/separator layout shows up here.
func TestJSONMatchesEncoder(t *testing.T) {
	g, a := testGraph(t)

	ref := jsonGraph{
		Program:  g.Trace.Program,
		Cores:    g.Trace.Cores,
		Makespan: uint64(g.Trace.Makespan()),
		Nodes:    make([]jsonNode, 0, g.NumNodes()),
	}
	for i := 0; i < g.NumNodes(); i++ {
		ref.Nodes = append(ref.Nodes, jsonNodeRow(g, core.NodeID(i), a))
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.EdgeAt(i)
		ref.Edges = append(ref.Edges, jsonEdge{
			From: int(e.From), To: int(e.To), Kind: e.Kind.String(), Critical: e.Critical,
		})
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", " ")
	if err := enc.Encode(ref); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	if err := JSONWithWhatIfPool(&got, g, a, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("sharded JSON differs from json.Encoder reference:\ngot  %q...\nwant %q...",
			firstDiff(got.Bytes(), want.Bytes()), firstDiff(want.Bytes(), got.Bytes()))
	}
}

// TestExportPoolByteIdentical runs the DOT and JSON emitters serially and on
// pools of several sizes and requires identical bytes: chunk boundaries are
// fixed, so worker count must never leak into the output.
func TestExportPoolByteIdentical(t *testing.T) {
	g, a := testGraph(t)

	var serialDOT, serialJSON bytes.Buffer
	if err := DOTWithWhatIfPool(&serialDOT, g, a, ViewParallelBenefit, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := JSONWithWhatIfPool(&serialJSON, g, a, nil, nil); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		pool := runpool.New(workers)
		var dotBuf, jsonBuf bytes.Buffer
		if err := DOTWithWhatIfPool(&dotBuf, g, a, ViewParallelBenefit, nil, pool); err != nil {
			t.Fatal(err)
		}
		if err := JSONWithWhatIfPool(&jsonBuf, g, a, nil, pool); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dotBuf.Bytes(), serialDOT.Bytes()) {
			t.Errorf("DOT output differs at %d workers", workers)
		}
		if !bytes.Equal(jsonBuf.Bytes(), serialJSON.Bytes()) {
			t.Errorf("JSON output differs at %d workers", workers)
		}
	}
}

// TestEmitShardedTinyGrain forces many more chunks than workers so the
// batch-barrier reassembly path is exercised with buffer reuse.
func TestEmitShardedTinyGrain(t *testing.T) {
	n := 1000
	render := func(lo, hi int, buf *bytes.Buffer) {
		for i := lo; i < hi; i++ {
			buf.WriteByte(byte('a' + i%26))
		}
	}
	var want bytes.Buffer
	render(0, n, &want)

	pool := runpool.New(4)
	var got bytes.Buffer
	if err := emitSharded(&got, n, 7, pool, render); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("sharded emission scrambled: got %q want %q", got.String(), want.String())
	}
}

// firstDiff returns a short window around the first byte where a and b
// disagree, for readable failure messages.
func firstDiff(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo, hi := i-20, i+40
	if lo < 0 {
		lo = 0
	}
	if hi > len(a) {
		hi = len(a)
	}
	return a[lo:hi]
}
