// Package ggp implements the grain-graph profile (GGP) artifact: a
// versioned on-disk encoding of a profile.Trace that splits recording from
// analysis. A runtime (simulated or native) emits records into a Writer as
// one artifact per run; grainview, grainserved and the experiment engine
// read the artifact's bytes back with Decode or DecodeTrace and obtain a
// trace that analyzes byte-identically to the live-simulated path.
//
// # Layout
//
//	header  := magic "GGPF" | version byte
//	section := id byte | uvarint payload length | payload
//	trailer := section id 0xFF with a 4-byte little-endian CRC-32 (IEEE)
//	           of every preceding byte (header + all sections)
//
// Record sections (task, loop, chunk, book-keeping) hold exactly one
// record each and repeat, so a Writer streams with bounded memory and the
// reader, walking the sections in place, reconstructs slices in emission
// order — which the graph builder relies on: NodeIDs are assigned in record
// order, so preserving it is what makes replayed analysis byte-identical.
// Bytes after the trailer are not read.
//
// # Columnar v2 ("GGPC")
//
// Version 2 replaces the per-record event stream with columnar sections:
// the writer serializes the trace's attribute slices as independently
// CRC'd column sections, so a reader decodes sections in parallel on the
// runpool with no per-event parse. The grain graph is not stored: it is a
// view of the trace, and every reader builds it with core.Build, which is
// cheaper than decoding it was. Optional sidecar sections persist derived
// indexes (lod summary, query metric table) written after first analysis;
// each is content-keyed against the content sections' checksums so a
// stale sidecar is detected and silently rebuilt, never trusted. See
// schema2.go (the section layouts), writer2.go/reader2.go and DESIGN.md
// §14.
//
//	header   := magic "GGPF" | version byte 0x02
//	section  := id byte | uvarint payload length | payload |
//	            4-byte LE CRC-32C (Castagnoli) of the payload
//	content  := meta 0x10 | workers 0x11 (optional) | tasks 0x12 |
//	            fragments 0x13 | boundaries 0x14 | loops 0x15 |
//	            chunks 0x16 | book-keeping 0x17
//	sidecar  := section with id in [0x20,0x2F); payload opens with a
//	            format-version byte and the 4-byte LE content key
//	trailer  := section id 0xFE; payload is the 4-byte LE content key
//	            (CRC-32C over the concatenated per-section CRCs of every
//	            non-sidecar section, in file order) plus a uvarint
//	            section count
//
// IDs 0x18–0x1A (graph nodes, node counters, edges) and 0x20 (the level
// index) are reserved: older writers stored the graph and its levels
// there. A reader verifies such a section's checksum and skips it. The
// graph sections are content sections, so an older artifact's content key
// still covers them and its sidecars stay fresh.
//
// # Versioning and forward compatibility
//
// The version byte gates the record encodings: the reader rejects versions
// newer than it understands. Within a version, unknown section IDs are
// skipped (they are length-prefixed), so a future minor producer may add
// new section kinds without breaking old readers; changing an existing
// record encoding requires a version bump.
package ggp

import "errors"

const (
	// Magic opens every GGP artifact.
	Magic = "GGPF"
	// Version is the v1 event-stream format version written by Writer.
	// Decode and DecodeTrace accept both v1 and v2.
	Version = 1
	// Version2 is the columnar format version written by EncodeV2.
	Version2 = 2
)

// Section IDs. The trailer ID is deliberately far from the record IDs so
// a truncated or bit-flipped stream is unlikely to alias it.
const (
	secMeta     = 0x01 // program identification and trace span
	secTask     = 0x02 // one TaskRecord
	secLoop     = 0x03 // one LoopRecord
	secChunk    = 0x04 // one ChunkRecord
	secBookkeep = 0x05 // one BookkeepRecord
	secWorkers  = 0x06 // per-worker time split
	secTrailer  = 0xFF // CRC-32 of everything before it
)

// v2 section IDs. Trace columns are content sections (they feed the
// trailer's content key); IDs in [0x20,0x2F) are sidecars,
// derived data that may be absent or stale without the artifact being
// corrupt. The v2 trailer ID differs from v1's so a mislabeled body cannot
// terminate cleanly.
const (
	secV2Meta         = 0x10 // program identification, span, section row counts
	secV2Workers      = 0x11 // per-worker time split
	secV2Tasks        = 0x12 // task columns + fragment/boundary CSR offsets
	secV2Frags        = 0x13 // flattened fragment columns
	secV2Bounds       = 0x14 // flattened boundary columns + joined CSR
	secV2Loops        = 0x15 // loop columns + thread CSR
	secV2Chunks       = 0x16 // chunk columns
	secV2Bookkeeps    = 0x17 // book-keeping columns
	secV2Nodes        = 0x18 // reserved: older artifacts' graph nodes, verified and skipped
	secV2NodeCounters = 0x19 // reserved: older artifacts' node counters, verified and skipped
	secV2Edges        = 0x1A // reserved: older artifacts' graph edges, verified and skipped
	secV2Levels       = 0x20 // reserved: older artifacts' level-index sidecar, verified and skipped
	secV2Lod          = 0x21 // sidecar: lod summary index columns
	secV2Query        = 0x22 // sidecar: query metric table
	secV2Trailer      = 0xFE // content key over non-sidecar section CRCs
)

// sidecarFormatVersion versions the sidecar payload encodings
// independently of the container: a reader that finds an unknown sidecar
// version discards the sidecar and rebuilds, it does not fail the decode.
const sidecarFormatVersion = 1

// isV2Sidecar reports whether a v2 section ID is a derived-data sidecar
// (excluded from the trailer's content key).
func isV2Sidecar(id byte) bool { return id >= 0x20 && id < 0x30 }

// maxSection caps a single section's payload. Record sections hold one
// record and stay tiny; the cap exists so a corrupted length prefix cannot
// make a section claim a multi-gigabyte payload.
const maxSection = 1 << 26

// Errors distinguishing the artifact failure modes.
var (
	// ErrMagic reports a stream that does not start with the GGP magic.
	ErrMagic = errors.New("ggp: bad magic (not a grain-profile artifact)")
	// ErrVersion reports an artifact written by a newer format version.
	ErrVersion = errors.New("ggp: unsupported format version")
	// ErrCRC reports trailer checksum mismatch (artifact corrupted).
	ErrCRC = errors.New("ggp: CRC mismatch, artifact corrupted")
	// ErrTruncated reports a stream that ends before its trailer.
	ErrTruncated = errors.New("ggp: truncated artifact")
)
