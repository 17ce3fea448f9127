package ggp

import (
	"fmt"
	"testing"

	"graingraph/internal/colenc"
	"graingraph/internal/colenc/colenctest"
)

// TestV2SectionSchemas runs the shared schema contract over every section
// layout: the content sections as the reader and writer enumerate them,
// plus the levels sidecar body.
func TestV2SectionSchemas(t *testing.T) {
	sections := func() []v2ContentSection {
		a := newV2Artifact()
		return append(a.content(), v2ContentSection{id: secV2Levels, cols: &a.levels})
	}
	// The columns outside their section's row groups: a CSR offset column
	// (rows+1 entries) or the flat column a CSR indexes.
	free := map[byte][]string{
		secV2Bounds: {"joinedOff", "joined"},
		secV2Loops:  {"threadOff", "threads"},
		secV2Nodes:  {"dict"},
		secV2Levels: {"off"},
	}
	for i, s := range sections() {
		t.Run(fmt.Sprintf("section 0x%02x", s.id), func(t *testing.T) {
			colenctest.Schema(t, func() (any, []colenc.Col) {
				h := sections()[i].cols
				return h, h.schema()
			}, free[s.id]...)
		})
	}
}
