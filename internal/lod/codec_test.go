package lod

import (
	"bytes"
	"testing"

	"graingraph/internal/colenc"
	"graingraph/internal/colenc/colenctest"
	"graingraph/internal/export"
	"graingraph/internal/query"
)

// TestIndexCodecRoundTrip: a built index must survive Encode → DecodeIndex
// with its summary table and windowed views byte-identical to the
// original's, and the decoded bytes must re-encode identically.
func TestIndexCodecRoundTrip(t *testing.T) {
	for name, s := range subjects(t) {
		ix := Build(s.g, s.a)
		enc := ix.Encode()
		dec, err := DecodeIndex(s.g, enc)
		if err != nil {
			t.Fatalf("%s: DecodeIndex: %v", name, err)
		}
		if !bytes.Equal(dec.Encode(), enc) {
			t.Errorf("%s: decoded index re-encodes differently", name)
		}
		// The decoded index holds exactly the columns on the wire, so its
		// schema must size and stream to the sidecar's bytes.
		colenctest.Sized(t, enc, dec.schema()...)

		var want, got bytes.Buffer
		if err := query.WriteTable(&want, ix.Table()); err != nil {
			t.Fatal(err)
		}
		if err := query.WriteTable(&got, dec.Table()); err != nil {
			t.Fatal(err)
		}
		if want.String() != got.String() {
			t.Errorf("%s: summary table differs after codec round trip", name)
		}

		for _, opt := range []WindowOptions{{Depth: 1, Top: 1}, {Depth: 3, Top: 8}} {
			wg, wst, err := ix.Window(opt)
			if err != nil {
				t.Fatal(err)
			}
			gg, gst, err := dec.Window(opt)
			if err != nil {
				t.Fatal(err)
			}
			if wst != gst {
				t.Errorf("%s: window stats differ: %+v vs %+v", name, wst, gst)
			}
			want.Reset()
			got.Reset()
			if err := export.DOTWithWhatIfPool(&want, wg, s.a, export.ViewStructure, nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := export.DOTWithWhatIfPool(&got, gg, s.a, export.ViewStructure, nil, nil); err != nil {
				t.Fatal(err)
			}
			if want.String() != got.String() {
				t.Errorf("%s: window %+v differs after codec round trip", name, opt)
			}
		}
	}
}

// TestIndexSchema runs the shared column-schema contract over the index
// layout. The CSR columns sit outside the two per-slot row groups.
func TestIndexSchema(t *testing.T) {
	colenctest.Schema(t, func() (any, []colenc.Col) {
		ix := &Index{}
		return ix, ix.schema()
	}, "childOff", "childIdx", "ownerOf", "nodeOff", "nodeIdx")
}

// TestIndexCodecRejectsMalformed fails closed on damaged payloads and on
// structurally valid payloads attached to the wrong graph.
func TestIndexCodecRejectsMalformed(t *testing.T) {
	subj := subjects(t)
	fib, loop := subj["fib"], subj["loop"]
	enc := Build(fib.g, fib.a).Encode()

	if _, err := DecodeIndex(fib.g, enc[:len(enc)/2]); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, err := DecodeIndex(fib.g, append(bytes.Clone(enc), 0x00)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := DecodeIndex(loop.g, enc); err == nil {
		t.Error("index for fib accepted against loop graph")
	}
	if _, err := DecodeIndex(fib.g, nil); err == nil {
		t.Error("empty payload accepted")
	}
}
