package ggp

// Test hooks for the external test package ggp_test, whose sample traces
// come from internal/rts.

import (
	"bytes"
	"io"

	"graingraph/internal/core"
	"graingraph/internal/profile"
)

const (
	SecTask    = secTask
	SecTrailer = secTrailer
	MaxSection = maxSection

	SecV2Meta    = secV2Meta
	SecV2Tasks   = secV2Tasks
	SecV2Nodes   = secV2Nodes
	SecV2Edges   = secV2Edges
	SecV2Lod     = secV2Lod
	SecV2Query   = secV2Query
	SecV2Trailer = secV2Trailer
)

// EncodeV2StaleForTest encodes a v2 artifact whose sidecars carry the
// given (wrong) content key, simulating sidecars left behind by an older
// version of the graph sections.
func EncodeV2StaleForTest(tr *profile.Trace, g *core.Graph, side []Sidecar, key uint32) ([]byte, error) {
	var buf bytes.Buffer
	err := writeV2(&buf, tr, g, side, &key)
	return buf.Bytes(), err
}

// WriteV2 streams a v2 artifact to w: the writer under EncodeV2 and
// WriteFileV2, for tests that measure it or bring their own sink.
func WriteV2(w io.Writer, tr *profile.Trace, g *core.Graph, side []Sidecar) error {
	return writeV2(w, tr, g, side, nil)
}

// WriteFileV2Via is WriteFileV2 with the temp file seen through sink, so a
// test can fail the stream at a byte of its choosing.
func WriteFileV2Via(path string, tr *profile.Trace, g *core.Graph, side []Sidecar, sink func(io.Writer) io.Writer) error {
	return writeFileAtomic(path, func(w io.Writer) error { return writeV2(sink(w), tr, g, side, nil) })
}

// RawSection emits an arbitrary section; the forward-compatibility tests
// use it to splice unknown section IDs into otherwise valid artifacts.
func (w *Writer) RawSection(id byte, payload []byte) error {
	w.buf = append(w.buf[:0], payload...)
	return w.section(id)
}
