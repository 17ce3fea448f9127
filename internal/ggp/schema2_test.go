package ggp

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"graingraph/internal/colenc"
	"graingraph/internal/colenc/colenctest"
)

// TestV2SectionSchemas runs the shared schema contract over every section
// layout: the content sections as the reader and writer enumerate them.
// Then, on the golden artifact, every section as it is on disk meets the
// size contract the streaming writer frames by: its schema, holding the
// decoded columns, sizes to exactly the stored payload and streams leaf by
// leaf to the same bytes. (The lod and query
// sidecar bodies answer for theirs in their own packages' codec tests.)
func TestV2SectionSchemas(t *testing.T) {
	sections := func() []v2ContentSection { return newV2Artifact().content() }
	// The columns outside their section's row groups: a CSR offset column
	// (rows+1 entries) or the flat column a CSR indexes.
	free := map[byte][]string{
		secV2Bounds: {"joinedOff", "joined"},
		secV2Loops:  {"threadOff", "threads"},
		secV2Nodes:  {"dict"},
	}
	for i, s := range sections() {
		t.Run(fmt.Sprintf("section 0x%02x", s.id), func(t *testing.T) {
			colenctest.Schema(t, func() (any, []colenc.Col) {
				h := sections()[i].cols
				return h, h.schema()
			}, free[s.id]...)
		})
	}

	golden, err := os.ReadFile("testdata/seed.v2s-nolevels.ggp")
	if err != nil {
		t.Fatal(err)
	}
	onDisk, _, err := walkV2(golden)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sections() {
		t.Run(fmt.Sprintf("golden section 0x%02x", s.id), func(t *testing.T) {
			i := slices.IndexFunc(onDisk, func(d v2Section) bool { return d.id == s.id })
			if i < 0 {
				t.Fatal("not in the golden artifact")
			}
			body := onDisk[i].payload
			if err := colenc.Decode(body, s.cols.schema()...); err != nil {
				t.Fatal(err)
			}
			colenctest.Sized(t, body, s.cols.schema()...)
		})
	}
}

// TestV2WriterRefusesMisframedSection pins that a section whose pieces do
// not add up to the size its header declared aborts the write with an
// internal error: an overrun before the extra bytes reach the stream, a
// shortfall before the CRC that would seal it.
func TestV2WriterRefusesMisframedSection(t *testing.T) {
	for name, c := range map[string]struct {
		pieces []int
		reach  int // payload bytes that may reach the stream
	}{
		"overrun":   {pieces: []int{6, 5}, reach: 6},
		"shortfall": {pieces: []int{6, 3}, reach: 9},
	} {
		var out bytes.Buffer
		w := &v2Writer{w: bufio.NewWriter(&out)}
		w.begin(secV2Lod, 10)
		for _, n := range c.pieces {
			w.payload(make([]byte, n))
		}
		w.end()
		if w.err == nil || !strings.Contains(w.err.Error(), "internal error") {
			t.Errorf("%s: err = %v, want an internal error", name, w.err)
		}
		w.w.Flush()
		if want := 2 + c.reach; out.Len() != want { // 2: the section header
			t.Errorf("%s: %d bytes reached the stream, want %d: the header and the pieces that fit, no CRC", name, out.Len(), want)
		}
		if w.sections != 0 {
			t.Errorf("%s: the misframed section was counted", name)
		}
	}
}
