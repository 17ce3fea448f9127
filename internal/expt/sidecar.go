package expt

import (
	"fmt"

	"graingraph/internal/ggp"
	"graingraph/internal/obs"
	"graingraph/internal/profile"
	"graingraph/internal/query"
	"graingraph/internal/runpool"
)

// Columnar-artifact glue: the analysis entry points for ggp.Decoded
// results (which may carry a ready-made graph and derived-artifact
// sidecars), plus the writer side — turning a finished analysis back into
// the sidecars a v2 artifact persists so the next decode skips the builds.

// AnalyzeDecodedOn derives the full metric set from a decoded artifact
// without executing the simulator. The pipeline is a live run's analysis
// verbatim — graph build, metrics, highlighting — so a saved artifact
// analyzes byte-identically to the live run it recorded. baseline may be
// nil, in which case work deviation is unavailable, exactly as with
// Config.Baseline off. cfg.Cores <= 0 takes the core count from the trace.
// The phase spans are rooted under parent (nil: their own tree). When the
// decode carried a materialized graph (columnar v2), the build phase is
// skipped; sidecar payloads riding along are threaded into the result for
// Lod/GrainTable. The graph is taken from the decode result at most once —
// a second analysis of the same Decoded rebuilds from the trace, which
// produces the same graph.
//
// The parallel kernels run on pool, not on the shared package-level one
// set by SetParallelism, which makes this the re-entrant entry point for
// concurrent callers (the grainserved artifact server analyzes independent
// requests on pools it owns): the analysis touches no package-level pool
// state, so concurrent calls never race with each other or with a
// CLI-style SetParallelism elsewhere in the process. A nil pool selects
// the shared pool, which is only safe when nothing mutates it
// concurrently. The output is byte-identical at every pool width.
func AnalyzeDecodedOn(pool *runpool.Runner, dec *ggp.Decoded, baseline *profile.Trace, cfg Config, parent *obs.Span) *Result {
	res := analyze(pool, dec.Trace, dec.TakeGraph(), baseline, cfg, parent)
	res.sidecarLod = dec.LodSidecar()
	res.sidecarQuery = dec.QuerySidecar()
	return res
}

// Sidecars derives the persistable sidecar set from a finished analysis:
// the lod summary index and the per-grain query metric table. Writing these
// alongside the graph sections lets the next decode of the artifact skip
// the corresponding builds entirely.
func Sidecars(res *Result, pool *runpool.Runner) []ggp.Sidecar {
	return []ggp.Sidecar{
		{Kind: ggp.SidecarLod, Data: res.Lod().Encode()},
		{Kind: ggp.SidecarQuery, Data: query.EncodeTable(res.GrainTable(pool))},
	}
}

// WriteUpgraded streams res to dst as a columnar v2 artifact with full
// sidecars (the write is atomic). The upgrade is one "upgrade:ggp2" span —
// under parent, or a root of the self profile when parent is nil — split
// into "upgrade:sidecars", deriving and encoding the lod index and the query
// table, and "upgrade:write", gathering the columns and streaming the file,
// so a phase table says how much of an upgrade is derivation and how much
// is the format's own cost.
func WriteUpgraded(dst string, res *Result, pool *runpool.Runner, parent *obs.Span) error {
	sp := obs.Under(SelfProfiler(), parent, "upgrade:ggp2")
	defer sp.End()
	ssp := sp.Child("upgrade:sidecars")
	side := Sidecars(res, pool)
	ssp.End()
	wsp := sp.Child("upgrade:write")
	defer wsp.End()
	return ggp.WriteFileV2(dst, res.Trace, res.Graph, side)
}

// UpgradeArtifact reads the artifact at src (either format), analyzes it,
// and writes a columnar v2 artifact with full sidecars to dst (which may
// equal src; the write is atomic). It is the ggpconv upgrade path; with the
// self profile enabled its decode, analysis and write are root phases.
func UpgradeArtifact(src, dst string, pool *runpool.Runner) error {
	isp := SelfProfiler().Begin("ingest:artifact")
	dec, err := ggp.DecodeFile(src, pool, isp)
	isp.End()
	if err != nil {
		return fmt.Errorf("upgrade artifact: %w", err)
	}
	res := AnalyzeDecodedOn(pool, dec, nil, Config{}, nil)
	if err := WriteUpgraded(dst, res, pool, nil); err != nil {
		return fmt.Errorf("upgrade artifact: %w", err)
	}
	return nil
}
