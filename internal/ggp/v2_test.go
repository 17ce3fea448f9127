package ggp_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"graingraph/internal/core"
	"graingraph/internal/ggp"
	"graingraph/internal/profile"
	"graingraph/internal/runpool"
)

func encodeV2(t *testing.T, tr *profile.Trace, side []ggp.Sidecar) []byte {
	t.Helper()
	data, err := ggp.EncodeV2(tr, nil, side)
	if err != nil {
		t.Fatalf("ggp.EncodeV2: %v", err)
	}
	return data
}

func decodeV2(t *testing.T, data []byte, pool *runpool.Runner) *ggp.Decoded {
	t.Helper()
	dec, err := ggp.Decode(data, pool, nil)
	if err != nil {
		t.Fatalf("ggp.Decode: %v", err)
	}
	return dec
}

// sameTrace asserts got reproduces want record for record, the same
// contract the v1 round-trip test checks.
func sameTrace(t *testing.T, got, want *profile.Trace) {
	t.Helper()
	if got.Program != want.Program || got.Cores != want.Cores || got.Sockets != want.Sockets ||
		got.Scheduler != want.Scheduler || got.Flavor != want.Flavor ||
		got.PagePolicy != want.PagePolicy || got.Start != want.Start || got.End != want.End {
		t.Errorf("meta mismatch: got %+v", got)
	}
	if len(got.Tasks) != len(want.Tasks) {
		t.Fatalf("tasks: %d, want %d", len(got.Tasks), len(want.Tasks))
	}
	for i := range want.Tasks {
		if !reflect.DeepEqual(got.Tasks[i], want.Tasks[i]) {
			t.Errorf("task %d differs:\n got %+v\nwant %+v", i, got.Tasks[i], want.Tasks[i])
		}
	}
	if !reflect.DeepEqual(got.Loops, want.Loops) {
		t.Errorf("loops differ: got %+v want %+v", got.Loops, want.Loops)
	}
	if !reflect.DeepEqual(got.Chunks, want.Chunks) {
		t.Errorf("chunks differ")
	}
	if !reflect.DeepEqual(got.Bookkeeps, want.Bookkeeps) {
		t.Errorf("bookkeeps differ")
	}
	if !reflect.DeepEqual(got.Workers, want.Workers) {
		t.Errorf("workers differ: got %+v want %+v", got.Workers, want.Workers)
	}
}

// sameGraph asserts two graphs are identical node for node, edge for
// edge, including the grain entry/exit maps.
func sameGraph(t *testing.T, got, want *core.Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("graph size: got %d nodes/%d edges, want %d/%d",
			got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for n := 0; n < got.NumNodes(); n++ {
		gn, wn := got.NodeAt(core.NodeID(n)), want.NodeAt(core.NodeID(n))
		if !reflect.DeepEqual(gn, wn) {
			t.Fatalf("node %d differs:\n got %+v\nwant %+v", n, gn, wn)
		}
	}
	for i := 0; i < got.NumEdges(); i++ {
		if got.EdgeAt(i) != want.EdgeAt(i) {
			t.Fatalf("edge %d differs: got %+v want %+v", i, got.EdgeAt(i), want.EdgeAt(i))
		}
	}
	if !reflect.DeepEqual(got.FirstNode, want.FirstNode) {
		t.Errorf("FirstNode tables differ")
	}
	if !reflect.DeepEqual(got.LastNode, want.LastNode) {
		t.Errorf("LastNode tables differ")
	}
}

// TestV2RoundTripTraceAndGraph: a v2 artifact decodes to its trace, and
// the graph built from the decoded trace is the graph of the live one.
func TestV2RoundTripTraceAndGraph(t *testing.T) {
	tr := sampleTrace(t)
	g := core.Build(tr)
	data := encodeV2(t, tr, nil)

	for _, workers := range []int{0, 4} {
		var pool *runpool.Runner
		if workers > 0 {
			pool = runpool.New(workers)
		}
		dec := decodeV2(t, data, pool)
		if dec.Version != 2 {
			t.Fatalf("version: %d", dec.Version)
		}
		sameTrace(t, dec.Trace, tr)
		sameGraph(t, core.Build(dec.Trace), g)
		if dec.SidecarStale {
			t.Fatal("sidecar-free artifact reported stale sidecars")
		}
		if dec.HasSidecars() {
			t.Fatal("sidecar-free artifact reports sidecars")
		}
	}
}

func TestV2DecodeTrace(t *testing.T) {
	tr := sampleTrace(t)
	data := encodeV2(t, tr, nil)
	got, err := ggp.DecodeTrace(data, nil, nil)
	if err != nil {
		t.Fatalf("DecodeTrace: %v", err)
	}
	sameTrace(t, got, tr)

	// And the v1 path through the same entry point.
	v1got, err := ggp.DecodeTrace(encode(t, tr), nil, nil)
	if err != nil {
		t.Fatalf("DecodeTrace(v1): %v", err)
	}
	sameTrace(t, v1got, tr)
}

func TestV2DeterministicEncoding(t *testing.T) {
	tr := sampleTrace(t)
	a := encodeV2(t, tr, nil)
	// Analysing the trace (which numbers its grains) changes nothing the
	// encoding reads.
	core.Build(tr)
	b := encodeV2(t, tr, nil)
	if !bytes.Equal(a, b) {
		t.Fatal("encoding changed after an analysis of the trace")
	}
	// A trace decoded from the artifact re-encodes to the same bytes.
	dec := decodeV2(t, a, nil)
	c := encodeV2(t, dec.Trace, nil)
	if !bytes.Equal(a, c) {
		t.Fatal("decode/re-encode not byte-identical")
	}
}

func TestV2SidecarRoundTrip(t *testing.T) {
	tr := sampleTrace(t)
	side := []ggp.Sidecar{
		{Kind: ggp.SidecarLod, Data: []byte("lod-payload")},
		{Kind: ggp.SidecarQuery, Data: []byte("query-payload")},
	}
	dec := decodeV2(t, encodeV2(t, tr, side), nil)
	if !dec.HasSidecars() {
		t.Fatal("HasSidecars: false, want true")
	}
	if string(dec.LodSidecar()) != "lod-payload" {
		t.Fatalf("lod sidecar: %q", dec.LodSidecar())
	}
	if string(dec.QuerySidecar()) != "query-payload" {
		t.Fatalf("query sidecar: %q", dec.QuerySidecar())
	}
	if dec.SidecarStale {
		t.Fatal("fresh sidecars reported stale")
	}
}

// TestV2StaleSidecarsDiscarded is the staleness contract: sidecars keyed
// against a different generation of the content sections are discarded
// and rebuilt, and the decode result is identical to a sidecar-free decode.
func TestV2StaleSidecarsDiscarded(t *testing.T) {
	tr := sampleTrace(t)
	side := []ggp.Sidecar{
		{Kind: ggp.SidecarLod, Data: []byte("stale-lod")},
		{Kind: ggp.SidecarQuery, Data: []byte("stale-query")},
	}
	plain := encodeV2(t, tr, nil)
	stale, err := ggp.EncodeV2StaleForTest(tr, side, 0xDEADBEEF)
	if err != nil {
		t.Fatalf("EncodeV2StaleForTest: %v", err)
	}

	dec, err := ggp.Decode(stale, nil, nil)
	if err != nil {
		t.Fatalf("Decode of artifact with stale sidecars: %v", err)
	}
	if !dec.SidecarStale {
		t.Fatal("SidecarStale: false, want true")
	}
	if dec.HasSidecars() {
		t.Fatal("stale sidecars still reported present")
	}
	if dec.LodSidecar() != nil || dec.QuerySidecar() != nil {
		t.Fatal("stale sidecar payloads handed out")
	}

	// Same decode result as the sidecar-free artifact.
	ref := decodeV2(t, plain, nil)
	sameTrace(t, dec.Trace, ref.Trace)
	// And the re-encoding (what an upgrade would persist) is identical.
	if a, b := encodeV2(t, dec.Trace, nil), encodeV2(t, ref.Trace, nil); !bytes.Equal(a, b) {
		t.Fatal("stale-decode re-encoding differs from sidecar-free decode")
	}
}

func TestV2CorruptionFailsClosed(t *testing.T) {
	tr := sampleTrace(t)
	side := []ggp.Sidecar{{Kind: ggp.SidecarLod, Data: []byte("lod")}}
	data := encodeV2(t, tr, side)

	t.Run("flipped content byte", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[len(ggp.Magic)+10] ^= 0xFF // inside the first (meta) section payload
		if _, err := ggp.Decode(bad, nil, nil); !errors.Is(err, ggp.ErrCRC) {
			t.Fatalf("got %v, want ErrCRC", err)
		}
	})
	t.Run("truncated mid-column", func(t *testing.T) {
		if _, err := ggp.Decode(data[:2*len(data)/3], nil, nil); !errors.Is(err, ggp.ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("flipped sidecar byte", func(t *testing.T) {
		// Find the lod sidecar section and flip a payload byte: sidecar
		// corruption is detected (hard error), not silently ignored —
		// staleness is a key mismatch, corruption is a checksum mismatch.
		idx := bytes.LastIndex(data, []byte("lod"))
		if idx < 0 {
			t.Fatal("sidecar payload not found")
		}
		bad := append([]byte(nil), data...)
		bad[idx] ^= 0xFF
		if _, err := ggp.Decode(bad, nil, nil); !errors.Is(err, ggp.ErrCRC) {
			t.Fatalf("got %v, want ErrCRC", err)
		}
	})
	t.Run("trailer with trailing bytes", func(t *testing.T) {
		// Re-frame the trailer with one extra payload byte and a checksum
		// that covers it: only the trailing-bytes check can object.
		at := len(data) - 11 // id, 1-byte length 5, key + 1-byte count, CRC
		if data[at] != ggp.SecV2Trailer || data[at+1] != 5 {
			t.Fatalf("trailer frame is not where this test expects it")
		}
		payload := append(bytes.Clone(data[at+2:at+7]), 0x00)
		bad := append(bytes.Clone(data[:at]), ggp.SecV2Trailer, byte(len(payload)))
		bad = append(bad, payload...)
		bad = binary.LittleEndian.AppendUint32(bad, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
		if _, err := ggp.Decode(bad, nil, nil); !errors.Is(err, ggp.ErrCRC) {
			t.Fatalf("got %v, want ErrCRC", err)
		}
	})
	t.Run("v2 header on v1 body", func(t *testing.T) {
		v1 := encode(t, tr)
		bad := append([]byte(nil), v1...)
		bad[len(ggp.Magic)] = 2
		if _, err := ggp.Decode(bad, nil, nil); err == nil {
			t.Fatal("v2 header with v1 body decoded successfully")
		}
	})
	t.Run("future version", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[len(ggp.Magic)] = 9
		if _, err := ggp.Decode(bad, nil, nil); !errors.Is(err, ggp.ErrVersion) {
			t.Fatalf("got %v, want ErrVersion", err)
		}
	})
}
