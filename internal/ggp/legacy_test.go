package ggp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"reflect"
	"slices"
	"testing"

	"graingraph/internal/colenc"
	"graingraph/internal/core"
	"graingraph/internal/runpool"
)

// withoutSection re-frames a v2 artifact without its id sections: every
// other section is copied byte for byte, and the trailer keeps the content
// key and counts the sections that remain.
func withoutSection(t *testing.T, data []byte, id byte) []byte {
	t.Helper()
	secs, key, err := walkV2(data)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(Magic), Version2)
	frame := func(id byte, payload []byte, crc uint32) {
		out = binary.AppendUvarint(append(out, id), uint64(len(payload)))
		out = binary.LittleEndian.AppendUint32(append(out, payload...), crc)
	}
	n := 0
	for _, s := range secs {
		if s.id != id && s.id != secV2Trailer {
			frame(s.id, s.payload, s.crc)
			n++
		}
	}
	trailer := binary.AppendUvarint(binary.LittleEndian.AppendUint32(nil, key), uint64(n))
	frame(secV2Trailer, trailer, crc32.Checksum(trailer, castagnoli))
	return out
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenDropsOnlyLevels pins what the writer stopped storing: the
// current golden artifact is the older one minus its 0x20 level-index
// sidecar, with the trailer's section count and checksum updated and the
// content key unchanged, since sidecars do not feed it.
func TestGoldenDropsOnlyLevels(t *testing.T) {
	old, cur := readGolden(t, "seed.v2s.ggp"), readGolden(t, "seed.v2s-nolevels.ggp")
	if !bytes.Equal(withoutSection(t, old, secV2Levels), cur) {
		t.Fatal("seed.v2s-nolevels.ggp is not seed.v2s.ggp without its levels sidecar")
	}
	_, oldKey, _ := walkV2(old)
	curSecs, curKey, _ := walkV2(cur)
	if oldKey != curKey {
		t.Errorf("content key %08x, was %08x", curKey, oldKey)
	}
	if slices.ContainsFunc(curSecs, func(s v2Section) bool { return s.id == secV2Levels }) {
		t.Error("the writer still emits a levels sidecar")
	}
}

// TestV2LevelsSidecar: an older artifact's level-index sidecar is verified
// and skipped like any unknown sidecar. The index the decoded graph builds
// on first use equals the one the sidecar carried, and a corrupted sidecar
// still fails the decode, full or trace-only.
func TestV2LevelsSidecar(t *testing.T) {
	old := readGolden(t, "seed.v2s.ggp")
	secs, key, err := walkV2(old)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(secs, func(s v2Section) bool { return s.id == secV2Levels })
	if i < 0 {
		t.Fatal("seed.v2s.ggp carries no levels sidecar")
	}
	body, ok, err := sidecarBody(secs[i].payload, key)
	if !ok || err != nil {
		t.Fatalf("levels sidecar header: ok=%v err=%v", ok, err)
	}
	// The sidecar body: level offsets, the level-ordered node list and each
	// node's level.
	var off, nodes, level []int32
	if err := colenc.Decode(body, colenc.U32(&off), colenc.SameRows(colenc.U32(&nodes), colenc.Uvar(&level))); err != nil {
		t.Fatal(err)
	}

	for _, pool := range []*runpool.Runner{nil, runpool.New(4)} {
		dec, err := Decode(old, pool, nil)
		if err != nil {
			t.Fatal(err)
		}
		g := dec.TakeGraph()
		if g.NumLevels() != len(off)-1 {
			t.Fatalf("built %d levels, the sidecar carried %d", g.NumLevels(), len(off)-1)
		}
		for l := 0; l < g.NumLevels(); l++ {
			if got, want := g.LevelNodes(l), nodes[off[l]:off[l+1]]; !reflect.DeepEqual(got, want) {
				t.Fatalf("level %d: built %v, the sidecar carried %v", l, got, want)
			}
		}
		for n, want := range level {
			if got := g.Level(core.NodeID(n)); got != int(want) {
				t.Fatalf("node %d: built level %d, the sidecar carried %d", n, got, want)
			}
		}
	}

	bad := bytes.Clone(old)
	bad[bytes.Index(old, secs[i].payload)+len(secs[i].payload)-1] ^= 0xFF
	if _, err := Decode(bad, nil, nil); !errors.Is(err, ErrCRC) {
		t.Errorf("Decode with a corrupted levels sidecar: %v, want ErrCRC", err)
	}
	if _, err := DecodeTrace(bad, nil, nil); !errors.Is(err, ErrCRC) {
		t.Errorf("DecodeTrace with a corrupted levels sidecar: %v, want ErrCRC", err)
	}
}
