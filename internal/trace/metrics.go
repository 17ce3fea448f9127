// Package trace is the runtime's counter registry: Metrics, an
// always-cheap set of scheduler and cache/NUMA counters per worker and per
// grain definition, filled by the simulated runtime (internal/rts) when
// rts.Config.Metrics is set. It is live-only: FailedSteals and the
// per-kind overhead split are not stored in a profile. What the runtime
// did at each instant (steals, parks, resumes) is not recorded here; it is
// derived from the profile itself (profile.Trace.SchedInstants).
package trace

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"graingraph/internal/cache"
	"graingraph/internal/profile"
)

// OverheadKind classifies runtime-overhead cycles. The per-kind split
// mirrors exactly what the engine adds to each worker's overhead clock,
// so the registry total reconciles cycle-for-cycle with the profile's
// WorkerStat.Overhead (internal/timeline cross-checks this).
type OverheadKind int

const (
	// OvSpawn is task-creation cost paid by the spawning worker.
	OvSpawn OverheadKind = iota
	// OvSteal is the thief-side cost of a successful steal.
	OvSteal
	// OvPop is the owner-side deque pop cost.
	OvPop
	// OvResume is the cost of resuming a suspended task.
	OvResume
	// OvTaskEnd is task teardown cost.
	OvTaskEnd
	// OvJoin is taskwait bookkeeping when all children already finished.
	OvJoin
	// OvQueue is central-queue enqueue/dequeue cost.
	OvQueue
	// OvBookkeep is parallel-for chunk-delivery bookkeeping.
	OvBookkeep

	numOverheadKinds
)

// String names the overhead kind.
func (k OverheadKind) String() string {
	switch k {
	case OvSpawn:
		return "spawn"
	case OvSteal:
		return "steal"
	case OvPop:
		return "pop"
	case OvResume:
		return "resume"
	case OvTaskEnd:
		return "task-end"
	case OvJoin:
		return "join"
	case OvQueue:
		return "queue"
	case OvBookkeep:
		return "bookkeep"
	default:
		return "unknown"
	}
}

// WorkerMetrics aggregates one worker's scheduler and cache counters.
type WorkerMetrics struct {
	// Time split in cycles; Busy+Overhead+Idle == Makespan once the run
	// finalizes.
	Busy, Overhead, Idle profile.Time

	Spawns        uint64 // tasks this worker created
	InlinedSpawns uint64 // of which executed undeferred (throttled)
	DequePushes   uint64 // local deque pushes
	DequePops     uint64 // local deque pops
	Steals        uint64 // successful steals by this worker (as thief)
	FailedSteals  uint64 // modeled empty-deque probes before each steal
	QueueOps      uint64 // central-queue enqueues/dequeues
	Parks         uint64 // taskwait suspensions of tasks owned here
	Resumes       uint64 // task resumptions executed here

	// OverheadBy splits Overhead by cause; the entries sum to Overhead.
	OverheadBy [numOverheadKinds]profile.Time

	// Cache aggregates the cache/NUMA counters of every fragment and
	// chunk this worker executed.
	Cache cache.Counters
}

// DefMetrics aggregates counters per grain source definition
// ("file:line(func)"), the grouping the paper uses throughout §4.
type DefMetrics struct {
	Loc    profile.SrcLoc
	Grains uint64       // task/chunk instances of this definition
	Exec   profile.Time // total execution cycles
	Cache  cache.Counters
}

// Metrics is the runtime counter registry. It is filled by rts.Run when
// attached via rts.Config.Metrics; all counters are plain increments on
// the simulator's single thread, so collection is always cheap.
type Metrics struct {
	Makespan profile.Time
	Workers  []WorkerMetrics
	// Defs maps SrcLoc.String() to per-definition aggregates. Iterate via
	// SortedDefs for deterministic output.
	Defs map[string]*DefMetrics
}

// NewMetrics returns an empty registry; rts.Run sizes it via Reset.
func NewMetrics() *Metrics {
	return &Metrics{Defs: make(map[string]*DefMetrics)}
}

// Reset clears the registry and sizes it for the given worker count.
func (m *Metrics) Reset(workers int) {
	m.Makespan = 0
	m.Workers = make([]WorkerMetrics, workers)
	m.Defs = make(map[string]*DefMetrics)
}

// W returns worker i's counters (for the runtime's increment sites).
func (m *Metrics) W(i int) *WorkerMetrics { return &m.Workers[i] }

// Def returns (creating if needed) the aggregate for a source definition.
func (m *Metrics) Def(loc profile.SrcLoc) *DefMetrics {
	key := loc.String()
	d := m.Defs[key]
	if d == nil {
		d = &DefMetrics{Loc: loc}
		m.Defs[key] = d
	}
	return d
}

// SortedDefs returns the per-definition aggregates ordered by total
// execution time (heaviest first; ties by location string) — the
// deterministic iteration order every renderer must use.
func (m *Metrics) SortedDefs() []*DefMetrics {
	out := make([]*DefMetrics, 0, len(m.Defs))
	for _, d := range m.Defs {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Exec != out[j].Exec {
			return out[i].Exec > out[j].Exec
		}
		return out[i].Loc.String() < out[j].Loc.String()
	})
	return out
}

// sum folds one worker counter across all workers.
func (m *Metrics) sum(f func(*WorkerMetrics) uint64) uint64 {
	var t uint64
	for i := range m.Workers {
		t += f(&m.Workers[i])
	}
	return t
}

// Steals returns the total successful steals.
func (m *Metrics) Steals() uint64 {
	return m.sum(func(w *WorkerMetrics) uint64 { return w.Steals })
}

// FailedSteals returns the total modeled failed steal probes.
func (m *Metrics) FailedSteals() uint64 {
	return m.sum(func(w *WorkerMetrics) uint64 { return w.FailedSteals })
}

// Parks returns the total taskwait suspensions.
func (m *Metrics) Parks() uint64 {
	return m.sum(func(w *WorkerMetrics) uint64 { return w.Parks })
}

// Resumes returns the total task resumptions.
func (m *Metrics) Resumes() uint64 {
	return m.sum(func(w *WorkerMetrics) uint64 { return w.Resumes })
}

// Spawns returns the total task creations.
func (m *Metrics) Spawns() uint64 {
	return m.sum(func(w *WorkerMetrics) uint64 { return w.Spawns })
}

// InlinedSpawns returns the total throttled (undeferred) task creations.
func (m *Metrics) InlinedSpawns() uint64 {
	return m.sum(func(w *WorkerMetrics) uint64 { return w.InlinedSpawns })
}

// DequePushes returns the total local deque pushes.
func (m *Metrics) DequePushes() uint64 {
	return m.sum(func(w *WorkerMetrics) uint64 { return w.DequePushes })
}

// DequePops returns the total local deque pops.
func (m *Metrics) DequePops() uint64 {
	return m.sum(func(w *WorkerMetrics) uint64 { return w.DequePops })
}

// QueueOps returns the total central-queue operations.
func (m *Metrics) QueueOps() uint64 {
	return m.sum(func(w *WorkerMetrics) uint64 { return w.QueueOps })
}

// TotalCache aggregates the cache counters across all workers.
func (m *Metrics) TotalCache() cache.Counters {
	var c cache.Counters
	for i := range m.Workers {
		c.Add(m.Workers[i].Cache)
	}
	return c
}

// OverheadOf returns worker i's overhead as the sum of its per-kind
// split (which must equal WorkerMetrics.Overhead).
func (m *Metrics) OverheadOf(i int) profile.Time {
	var t profile.Time
	for _, v := range m.Workers[i].OverheadBy {
		t += v
	}
	return t
}

// CacheHitRates derives per-level hit rates from counters: level i's
// accesses are the misses of level i-1 (L1 sees every access). mem is
// the number of memory accesses and remote the fraction of those served
// by a remote NUMA node.
func CacheHitRates(c cache.Counters) (l1, l2, l3 float64, mem uint64, remote float64) {
	rate := func(hits, accesses uint64) float64 {
		if accesses == 0 {
			return 1
		}
		return float64(hits) / float64(accesses)
	}
	l1 = rate(c.Accesses-c.L1Miss, c.Accesses)
	l2 = rate(c.L1Miss-c.L2Miss, c.L1Miss)
	l3 = rate(c.L2Miss-c.L3Miss, c.L2Miss)
	mem = c.L3Miss
	if mem > 0 {
		remote = float64(c.Remote) / float64(mem)
	}
	return
}

// timeShares returns the busy/overhead/idle fractions of makespan·workers.
func (m *Metrics) timeShares() (busy, over, idle float64) {
	var b, o, id profile.Time
	for i := range m.Workers {
		b += m.Workers[i].Busy
		o += m.Workers[i].Overhead
		id += m.Workers[i].Idle
	}
	total := m.Makespan * profile.Time(len(m.Workers))
	if total == 0 {
		return 0, 0, 0
	}
	return float64(b) / float64(total), float64(o) / float64(total), float64(id) / float64(total)
}

// Summary renders the registry as one line — the figure-footer format:
// scheduler counters, time split and per-level cache hit rates.
func (m *Metrics) Summary() string {
	busy, over, idle := m.timeShares()
	l1, l2, l3, mem, remote := CacheHitRates(m.TotalCache())
	return fmt.Sprintf(
		"steals %d (%d failed probes), parks %d, resumes %d, spawns %d (%d inlined), "+
			"busy %.1f%% overhead %.1f%% idle %.1f%%, "+
			"L1 %.1f%% L2 %.1f%% L3 %.1f%% hit, mem %d (%.1f%% remote)",
		m.Steals(), m.FailedSteals(), m.Parks(), m.Resumes(), m.Spawns(), m.InlinedSpawns(),
		100*busy, 100*over, 100*idle, 100*l1, 100*l2, 100*l3, mem, 100*remote)
}

// Render writes the full multi-line stats report: global scheduler
// counters, the aggregate time split, per-level cache hit rates, and the
// heaviest grain definitions. Output is byte-stable across runs.
func (m *Metrics) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "makespan\t%d cycles × %d workers\n", m.Makespan, len(m.Workers))
	fmt.Fprintf(tw, "steals\t%d successful, %d failed probes\n", m.Steals(), m.FailedSteals())
	fmt.Fprintf(tw, "deque ops\t%d pushes, %d pops\n", m.DequePushes(), m.DequePops())
	if q := m.QueueOps(); q > 0 {
		fmt.Fprintf(tw, "central-queue ops\t%d\n", q)
	}
	fmt.Fprintf(tw, "parks / resumes\t%d / %d\n", m.Parks(), m.Resumes())
	fmt.Fprintf(tw, "spawns\t%d (%d inlined by throttling)\n", m.Spawns(), m.InlinedSpawns())
	busy, over, idle := m.timeShares()
	fmt.Fprintf(tw, "time split\tbusy %.1f%%, overhead %.1f%%, idle %.1f%%\n",
		100*busy, 100*over, 100*idle)
	c := m.TotalCache()
	l1, l2, l3, mem, remote := CacheHitRates(c)
	fmt.Fprintf(tw, "cache\tL1 %.1f%%, L2 %.1f%%, L3 %.1f%% hit\n", 100*l1, 100*l2, 100*l3)
	fmt.Fprintf(tw, "memory\t%d line transfers, %.1f%% remote, %d stall cycles\n",
		mem, 100*remote, c.Stall)
	defs := m.SortedDefs()
	if len(defs) > 0 {
		fmt.Fprintln(tw, "heaviest definitions\tgrains\texec cycles")
		max := 8
		if len(defs) < max {
			max = len(defs)
		}
		for _, d := range defs[:max] {
			fmt.Fprintf(tw, "  %s\t%d\t%d\n", d.Loc, d.Grains, d.Exec)
		}
	}
	return tw.Flush()
}
