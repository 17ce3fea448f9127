package rts

// Observability hooks: every counter site the engine calls lives here,
// each guarded on a nil registry so an uninstrumented run (the default)
// pays nothing beyond a pointer test.

import (
	"graingraph/internal/cache"
	"graingraph/internal/sim"
	"graingraph/internal/trace"
)

// countOverhead books overhead cycles against worker w under kind k.
// Call it alongside every `w.overhead +=` so the registry reconciles
// cycle-for-cycle with profile.WorkerStat.Overhead.
func (rt *runtime) countOverhead(w *worker, k trace.OverheadKind, cycles sim.Time) {
	if rt.met == nil {
		return
	}
	rt.met.W(w.id).OverheadBy[k] += cycles
}

// countGrain aggregates a finished fragment/chunk into the per-worker
// and per-definition cache/exec rollups. d is the grain's definition
// aggregate, resolved once by the caller (nil when metrics are off).
func (rt *runtime) countGrain(worker int, d *trace.DefMetrics, exec sim.Time, cnt cache.Counters) {
	if rt.met == nil {
		return
	}
	rt.met.W(worker).Cache.Add(cnt)
	d.Exec += exec
	d.Cache.Add(cnt)
}

// countSteal books a successful steal plus its modeled failed probes:
// random victim selection means the thief probes deques until it finds a
// non-empty one, so every other empty deque at steal time counts as one
// failed attempt.
func (rt *runtime) countSteal(thief *worker) {
	if rt.met == nil {
		return
	}
	wm := rt.met.W(thief.id)
	wm.Steals++
	for _, v := range rt.workers {
		if v != thief && v.deque.Len() == 0 {
			wm.FailedSteals++
		}
	}
}

// finalizeMetrics closes the registry: per-worker time splits and the
// run makespan. Busy+Overhead+Idle == Makespan for every worker by
// construction; internal/timeline fails loudly if that ever breaks.
func (rt *runtime) finalizeMetrics() {
	if rt.met == nil {
		return
	}
	rt.met.Makespan = rt.maxTime
	for _, w := range rt.workers {
		wm := rt.met.W(w.id)
		wm.Busy = w.busy
		wm.Overhead = w.overhead
		if used := w.busy + w.overhead; used <= rt.maxTime {
			wm.Idle = rt.maxTime - used
		}
	}
}
