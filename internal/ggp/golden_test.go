package ggp_test

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"graingraph/internal/core"
	"graingraph/internal/ggp"
	"graingraph/internal/lod"
	"graingraph/internal/profile"
	"graingraph/internal/query"
	"graingraph/internal/runpool"
)

// seedTable is a per-task query table over the seed trace with one column
// of each kind, so the query sidecar in the golden artifact exercises every
// column encoding the table codec has.
func seedTable(tr *profile.Trace) *query.Table {
	ids := make([]string, len(tr.Tasks))
	exec := make([]int64, len(tr.Tasks))
	share := make([]float64, len(tr.Tasks))
	for i, t := range tr.Tasks {
		ids[i] = string(t.ID)
		exec[i] = int64(t.ExecTime())
		share[i] = float64(t.ExecTime()) / float64(tr.Makespan())
	}
	return query.NewTable(len(ids)).AddStr("grain", ids).AddInt("exec", exec).AddFloat("share", share)
}

func tableText(t *testing.T, tab *query.Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := query.WriteTable(&buf, tab); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestGoldenV2Artifact pins the bytes on disk: the committed artifact was
// written by the encoder as it stood before the column schemas existed.
// Round-trip tests cannot see a column order swapped in writer and reader
// alike; every artifact a server has already upgraded in place can.
func TestGoldenV2Artifact(t *testing.T) {
	golden, err := os.ReadFile("testdata/seed.v2s.ggp")
	if err != nil {
		t.Fatal(err)
	}
	tr := seedTrace()
	g := core.Build(tr)
	g.NumLevels()
	ix := lod.Build(g, nil)
	tab := seedTable(tr)
	side := []ggp.Sidecar{
		{Kind: ggp.SidecarLod, Data: ix.Encode()},
		{Kind: ggp.SidecarQuery, Data: query.EncodeTable(tab)},
	}
	if got := encodeV2(t, tr, g, side); !bytes.Equal(got, golden) {
		t.Fatalf("EncodeV2 wrote %d bytes that differ from the %d-byte golden artifact", len(got), len(golden))
	}

	// Serially and with one pool worker per section job: the jobs fill
	// shared holders, which the race detector watches in CI.
	for _, pool := range []*runpool.Runner{nil, runpool.New(4)} {
		dec := decodeV2(t, golden, pool)
		if dec.SidecarStale || !dec.HasSidecars() {
			t.Fatalf("golden sidecars: stale=%v complete=%v", dec.SidecarStale, dec.HasSidecars())
		}
		sameTrace(t, dec.Trace, tr)
		dg := dec.TakeGraph()
		sameGraph(t, dg, g)
		gotOff, gotNodes, gotLevel := dg.ExportLevels()
		wantOff, wantNodes, wantLevel := g.ExportLevels()
		if !reflect.DeepEqual(gotOff, wantOff) || !reflect.DeepEqual(gotNodes, wantNodes) || !reflect.DeepEqual(gotLevel, wantLevel) {
			t.Error("adopted level index differs from the built one")
		}

		dix, err := lod.DecodeIndex(dg, dec.LodSidecar())
		if err != nil {
			t.Fatalf("lod sidecar: %v", err)
		}
		if got, want := tableText(t, dix.Table()), tableText(t, ix.Table()); got != want {
			t.Errorf("lod summary table from the golden sidecar:\n%s\nwant:\n%s", got, want)
		}
		dtab, err := query.DecodeTable(dec.QuerySidecar())
		if err != nil {
			t.Fatalf("query sidecar: %v", err)
		}
		if got, want := tableText(t, dtab), tableText(t, tab); got != want {
			t.Errorf("query table from the golden sidecar:\n%s\nwant:\n%s", got, want)
		}
	}
}
