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

// sameLevels asserts got's topological level index, built on first use,
// equals want's level by level.
func sameLevels(t *testing.T, got, want *core.Graph) {
	t.Helper()
	if gn, wn := got.NumLevels(), want.NumLevels(); gn != wn {
		t.Fatalf("levels: %d, want %d", gn, wn)
	}
	for l := 0; l < want.NumLevels(); l++ {
		if !reflect.DeepEqual(got.LevelNodes(l), want.LevelNodes(l)) {
			t.Fatalf("level %d nodes differ", l)
		}
	}
}

// TestGoldenV2Artifact pins the bytes on disk. seed.v2s-nolevels.ggp is
// what the encoder writes: round-trip tests cannot see a column order
// swapped in writer and reader alike; every artifact a server has already
// upgraded in place can. seed.v2s.ggp was written before the level index
// stopped being stored, and carries it as a 0x20 sidecar: it must still
// decode to the same trace, graph, levels and lod/query sidecars.
func TestGoldenV2Artifact(t *testing.T) {
	tr := seedTrace()
	g := core.Build(tr)
	ix := lod.Build(g, nil)
	tab := seedTable(tr)
	side := []ggp.Sidecar{
		{Kind: ggp.SidecarLod, Data: ix.Encode()},
		{Kind: ggp.SidecarQuery, Data: query.EncodeTable(tab)},
	}
	golden, err := os.ReadFile("testdata/seed.v2s-nolevels.ggp")
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeV2(t, tr, g, side); !bytes.Equal(got, golden) {
		t.Fatalf("EncodeV2 wrote %d bytes that differ from the %d-byte golden artifact", len(got), len(golden))
	}

	for _, name := range []string{"seed.v2s-nolevels.ggp", "seed.v2s.ggp"} {
		data, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		// Serially and with one pool worker per section job: the jobs fill
		// shared holders, which the race detector watches in CI.
		for _, pool := range []*runpool.Runner{nil, runpool.New(4)} {
			dec := decodeV2(t, data, pool)
			if dec.SidecarStale || !dec.HasSidecars() {
				t.Fatalf("%s sidecars: stale=%v complete=%v", name, dec.SidecarStale, dec.HasSidecars())
			}
			sameTrace(t, dec.Trace, tr)
			dg := dec.TakeGraph()
			sameGraph(t, dg, g)
			sameLevels(t, dg, g)

			dix, err := lod.DecodeIndex(dg, dec.LodSidecar())
			if err != nil {
				t.Fatalf("%s lod sidecar: %v", name, err)
			}
			if got, want := tableText(t, dix.Table()), tableText(t, ix.Table()); got != want {
				t.Errorf("lod summary table from the %s sidecar:\n%s\nwant:\n%s", name, got, want)
			}
			dtab, err := query.DecodeTable(dec.QuerySidecar())
			if err != nil {
				t.Fatalf("%s query sidecar: %v", name, err)
			}
			if got, want := tableText(t, dtab), tableText(t, tab); got != want {
				t.Errorf("query table from the %s sidecar:\n%s\nwant:\n%s", name, got, want)
			}
		}
	}
}
