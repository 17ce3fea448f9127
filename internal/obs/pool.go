package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of log2(ns) chunk-latency buckets: bucket i
// counts chunks whose duration d satisfies 2^(i-1) ≤ d < 2^i ns (bucket 0
// holds sub-nanosecond/zero readings). 48 buckets cover ~3 days.
const histBuckets = 48

// workerStats is one worker slot's counters, padded to its own cache line
// so concurrent workers never false-share.
type workerStats struct {
	busyNS  atomic.Int64 // time inside chunk/job bodies
	spanNS  atomic.Int64 // participation time (goroutine entry to exit)
	chunks  atomic.Int64 // bodies executed
	strides atomic.Int64 // fan-out invocations this slot participated in
	_       [64 - 4*8]byte
}

// PoolTelemetry aggregates run-pool activity: per-worker busy/participation
// time and chunk counts, a global chunk-latency histogram, and queue waits
// (delay between a fan-out starting and each worker claiming its first
// chunk). All record methods are lock-free atomics, safe from concurrent
// workers, and every method on a nil receiver is a no-op, so the pool pays
// one nil test when telemetry is detached.
//
// Worker indexes are per-invocation slots (0 ≤ w < workers), not OS
// threads: slot w aggregates every goroutine that ran as the w-th worker
// of some fan-out, plus the calling goroutine of serial fallbacks (slot 0).
type PoolTelemetry struct {
	workers []workerStats
	hist    [histBuckets]atomic.Int64
	queueNS atomic.Int64
	queueN  atomic.Int64
}

// NewPoolTelemetry returns telemetry with the given number of worker
// slots; workers < 1 is normalized to 1.
func NewPoolTelemetry(workers int) *PoolTelemetry {
	if workers < 1 {
		workers = 1
	}
	return &PoolTelemetry{workers: make([]workerStats, workers)}
}

// slot clamps a worker index into the allocated range, so a pool resized
// after telemetry attachment degrades to aggregation rather than panicking.
func (t *PoolTelemetry) slot(w int) *workerStats {
	if w < 0 {
		w = 0
	}
	if w >= len(t.workers) {
		w = len(t.workers) - 1
	}
	return &t.workers[w]
}

// RecordChunk attributes one executed chunk (or Map job) of duration d to
// worker slot w: busy time, chunk count and the latency histogram.
func (t *PoolTelemetry) RecordChunk(w int, d time.Duration) {
	if t == nil {
		return
	}
	ws := t.slot(w)
	ws.busyNS.Add(int64(d))
	ws.chunks.Add(1)
	t.hist[histBucket(d)].Add(1)
}

// RecordWorkerSpan attributes one fan-out participation of total duration d
// to worker slot w. Idle time is derived at snapshot: span − busy.
func (t *PoolTelemetry) RecordWorkerSpan(w int, d time.Duration) {
	if t == nil {
		return
	}
	ws := t.slot(w)
	ws.spanNS.Add(int64(d))
	ws.strides.Add(1)
}

// RecordQueueWait records the delay between a fan-out being issued and one
// of its workers claiming its first chunk.
func (t *PoolTelemetry) RecordQueueWait(d time.Duration) {
	if t == nil {
		return
	}
	t.queueNS.Add(int64(d))
	t.queueN.Add(1)
}

// histBucket maps a duration to its log2 bucket.
func histBucket(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	b := bits.Len64(uint64(d))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// WorkerSnapshot is one worker slot's aggregate in a PoolSnapshot.
type WorkerSnapshot struct {
	Worker int           `json:"worker"`
	Busy   time.Duration `json:"busy_ns"`
	Span   time.Duration `json:"span_ns"`
	Idle   time.Duration `json:"idle_ns"` // max(0, Span − Busy)
	Chunks int64         `json:"chunks"`
}

// HistBucket is one non-empty latency bucket: Count chunks took at least
// Lo and less than Hi.
type HistBucket struct {
	Lo    time.Duration `json:"lo_ns"`
	Hi    time.Duration `json:"hi_ns"`
	Count int64         `json:"count"`
}

// MemoCounters is one memoization cache's hit/miss totals. Evictions is
// non-zero only for capacity-bounded caches (a long-running server's
// analysis cache); the CLIs' unbounded memos never evict.
type MemoCounters struct {
	Name      string `json:"name"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions,omitempty"`
}

// PoolSnapshot is a point-in-time aggregate of pool telemetry.
type PoolSnapshot struct {
	Workers []WorkerSnapshot `json:"workers"`

	Chunks    int64         `json:"chunks"`
	Busy      time.Duration `json:"busy_ns"`
	Idle      time.Duration `json:"idle_ns"`
	QueueWait time.Duration `json:"queue_wait_ns"`
	Fanouts   int64         `json:"queue_waits"` // fan-out first-claim waits recorded

	// Latency is the chunk-latency histogram, non-empty buckets only,
	// ascending.
	Latency []HistBucket `json:"latency,omitempty"`

	// Memos lists the memoization caches the snapshot's owner appends,
	// in its order.
	Memos []MemoCounters `json:"memos,omitempty"`
}

// Snapshot aggregates the counters. Worker slots that never recorded
// anything are omitted, so a serial run reports exactly one worker. A nil
// receiver returns nil.
func (t *PoolTelemetry) Snapshot() *PoolSnapshot {
	if t == nil {
		return nil
	}
	s := &PoolSnapshot{
		QueueWait: time.Duration(t.queueNS.Load()),
		Fanouts:   t.queueN.Load(),
	}
	for i := range t.workers {
		ws := &t.workers[i]
		busy := time.Duration(ws.busyNS.Load())
		span := time.Duration(ws.spanNS.Load())
		chunks := ws.chunks.Load()
		if busy == 0 && span == 0 && chunks == 0 {
			continue
		}
		idle := span - busy
		if idle < 0 {
			idle = 0
		}
		s.Workers = append(s.Workers, WorkerSnapshot{
			Worker: i, Busy: busy, Span: span, Idle: idle, Chunks: chunks,
		})
		s.Chunks += chunks
		s.Busy += busy
		s.Idle += idle
	}
	for b := 0; b < histBuckets; b++ {
		n := t.hist[b].Load()
		if n == 0 {
			continue
		}
		lo := time.Duration(0)
		if b > 0 {
			lo = time.Duration(1) << (b - 1)
		}
		s.Latency = append(s.Latency, HistBucket{
			Lo: lo, Hi: time.Duration(1) << b, Count: n,
		})
	}
	return s
}
