package expt

import (
	"sync"

	"graingraph/internal/obs"
)

// Self-observability glue: the analysis pipeline's own phase spans and the
// run pool's telemetry, reported through one registry (internal/obs). The
// cmds enable it for their -phases/-selfprofile flags; when disabled every
// instrumentation site costs a nil test.

var (
	selfMu   sync.Mutex
	selfProf *obs.Profiler
	selfTel  *obs.PoolTelemetry
)

// EnableSelfProfile turns on self-observability: phase spans for every
// analysis this package performs are collected on p, and pool telemetry is
// attached to the experiment pool. Call it after SetParallelism and before
// running figures or analyses; pass nil to disable. The previous profiler's
// spans are abandoned, not merged.
func EnableSelfProfile(p *obs.Profiler) {
	selfMu.Lock()
	if p == nil {
		selfProf, selfTel = nil, nil
	} else {
		selfProf = p
		w := parallelism()
		if w < 1 {
			w = 1
		}
		selfTel = obs.NewPoolTelemetry(w)
	}
	tel := selfTel
	selfMu.Unlock()
	currentPool().SetTelemetry(tel)
}

// SelfProfiler returns the enabled profiler, or nil. Instrumentation sites
// call it once per phase; the nil result flows through obs' nil guards.
func SelfProfiler() *obs.Profiler {
	selfMu.Lock()
	defer selfMu.Unlock()
	return selfProf
}

func selfTelemetry() *obs.PoolTelemetry {
	selfMu.Lock()
	defer selfMu.Unlock()
	return selfTel
}

// SelfProfile snapshots the registry: the finished phase spans in
// canonical order plus the pool telemetry, with the engine's memoization
// caches (simulation memo, artifact-decode memo) reported as named
// hit/miss counters. It fails if instrumentation left spans open. Returns
// nil when self-observability is disabled.
func SelfProfile() (*obs.Profile, error) {
	p := SelfProfiler()
	if p == nil {
		return nil, nil
	}
	spans, err := p.Snapshot()
	if err != nil {
		return nil, err
	}
	prof := &obs.Profile{Spans: spans, Pool: selfTelemetry().Snapshot()}
	if prof.Pool != nil {
		sim := simMemo.Counters()
		art := artifactMemo.Counters()
		prof.Pool.Memos = append(prof.Pool.Memos,
			obs.MemoCounters{Name: "simulate", Hits: sim.Hits, Misses: sim.Misses, Evictions: sim.Evictions},
			obs.MemoCounters{Name: "artifact", Hits: art.Hits, Misses: art.Misses, Evictions: art.Evictions},
		)
	}
	return prof, nil
}
