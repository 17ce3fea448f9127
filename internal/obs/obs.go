// Package obs is the analyzer's self-observability layer: the same
// medicine the grain graph applies to the simulated runtime, applied to the
// analysis pipeline itself. A Profiler collects hierarchical phase spans
// (ggp ingest, graph build, each metric kernel, the critical-path DP, the
// highlight scan, what-if ranking, export emission) with wall time and
// heap-allocation deltas, and a PoolTelemetry aggregates the run pool's
// per-worker busy/idle time, chunk counts, chunk-latency histogram, queue
// waits and memoization hit/miss counters.
//
// Everything is nil-guarded: a nil *Profiler hands out nil *Spans, a nil *Span
// ignores Child/End, and a nil *PoolTelemetry ignores every record call,
// so instrumented code pays one pointer test — no clock reads, no
// allocation — when observation is off.
//
// Snapshots are canonical: spans are ordered depth-first with root trees
// and siblings sorted by name (creation sequence breaks ties), so the
// structure of a snapshot — everything except the measured times and
// allocation deltas — is deterministic at every pool parallelism.
package obs

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Profiler collects phase spans. Construct with New; the zero value is not
// usable. All methods are safe for concurrent use: pool workers may open
// and close spans while other phases run.
type Profiler struct {
	// TrackMem, when set (New's default), samples runtime.MemStats at span
	// begin/end and records the malloc-count and allocated-byte deltas.
	// The counters are process-global, so deltas attributed to a span that
	// overlaps concurrent work include that work's allocations too —
	// approximate by design, like any sampling profiler.
	TrackMem bool

	epoch time.Time

	mu    sync.Mutex
	spans []spanState
	roots int
	open  int
}

// spanState is a span's mutable record inside the profiler.
type spanState struct {
	name        string
	parent      int // -1 for roots
	seq         int // creation sequence within the parent (or among roots)
	start       time.Duration
	dur         time.Duration
	allocs0     uint64
	bytes0      uint64
	allocs      uint64
	bytes       uint64
	ended       bool
	childrenSeq int
}

// Span is a live phase. Obtain one from Profiler.Begin or Span.Child and
// finish it with End. A nil Span is inert: Child returns nil, End is a
// no-op — callers never need to test whether profiling is enabled.
type Span struct {
	p  *Profiler
	id int
}

// New returns an empty profiler with memory tracking enabled.
func New() *Profiler {
	return &Profiler{TrackMem: true, epoch: time.Now()}
}

// Begin opens a root span. A nil profiler returns a nil span.
func (p *Profiler) Begin(name string) *Span {
	if p == nil {
		return nil
	}
	return p.begin(name, -1)
}

// Child opens a span nested under s. A nil span returns nil, so disabled
// profiling propagates through call chains without checks.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.p.begin(name, s.id)
}

// Under opens a span below parent when parent is non-nil, and otherwise a
// root span on p. It is the shape instrumented pipeline stages want: the
// caller may or may not have threaded a parent through.
func Under(p *Profiler, parent *Span, name string) *Span {
	if parent != nil {
		return parent.Child(name)
	}
	return p.Begin(name)
}

func (p *Profiler) begin(name string, parent int) *Span {
	var allocs, bytes uint64
	if p.TrackMem {
		allocs, bytes = readMem()
	}
	now := time.Since(p.epoch)
	p.mu.Lock()
	id := len(p.spans)
	seq := 0
	if parent >= 0 {
		seq = p.spans[parent].childrenSeq
		p.spans[parent].childrenSeq++
	} else {
		seq = p.roots
		p.roots++
	}
	p.spans = append(p.spans, spanState{
		name:    name,
		parent:  parent,
		seq:     seq,
		start:   now,
		allocs0: allocs,
		bytes0:  bytes,
	})
	p.open++
	p.mu.Unlock()
	return &Span{p: p, id: id}
}

// End closes the span, recording its wall time and (with TrackMem) its
// allocation deltas. Ending a span twice is a bug in the instrumentation —
// the second End panics, naming the span, rather than silently corrupting
// the phase accounting. End on a nil span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	p := s.p
	var allocs, bytes uint64
	if p.TrackMem {
		allocs, bytes = readMem()
	}
	now := time.Since(p.epoch)
	p.mu.Lock()
	st := &p.spans[s.id]
	if st.ended {
		name := st.name
		p.mu.Unlock()
		panic(fmt.Sprintf("obs: span %q ended twice", name))
	}
	st.ended = true
	st.dur = now - st.start
	if p.TrackMem {
		st.allocs = allocs - st.allocs0
		st.bytes = bytes - st.bytes0
	}
	p.open--
	p.mu.Unlock()
}

// readMem samples the process-global allocation counters.
func readMem() (allocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// SpanRecord is one finished span in a snapshot.
type SpanRecord struct {
	// ID and Parent index into the snapshot's Spans slice (Parent == -1
	// for roots). Depth is the nesting level, 0 for roots.
	ID     int
	Parent int
	Depth  int
	Name   string
	// Start is the span's begin time relative to the profiler's epoch;
	// Dur its wall time.
	Start time.Duration
	Dur   time.Duration
	// Allocs and Bytes are the heap-allocation deltas over the span
	// (zero when TrackMem is off). Process-global: see Profiler.TrackMem.
	Allocs uint64
	Bytes  uint64
}

// Snapshot returns every finished span in canonical order: depth-first,
// with root trees and sibling groups sorted by name (creation sequence
// breaking ties between same-named siblings). IDs and Parent links are
// rewritten to snapshot positions. It fails if any span is still open —
// unbalanced begin/end instrumentation — naming the offenders.
func (p *Profiler) Snapshot() ([]SpanRecord, error) {
	if p == nil {
		return nil, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.open > 0 {
		var names []string
		for i := range p.spans {
			if !p.spans[i].ended {
				names = append(names, p.spans[i].name)
			}
		}
		return nil, fmt.Errorf("obs: %d span(s) still open: %v", p.open, names)
	}

	// Group children by parent (-1 keyed as len(spans) for roots).
	children := make(map[int][]int, len(p.spans))
	for i := range p.spans {
		children[p.spans[i].parent] = append(children[p.spans[i].parent], i)
	}
	for _, ids := range children {
		sort.Slice(ids, func(a, b int) bool {
			sa, sb := &p.spans[ids[a]], &p.spans[ids[b]]
			if sa.name != sb.name {
				return sa.name < sb.name
			}
			return sa.seq < sb.seq
		})
	}

	out := make([]SpanRecord, 0, len(p.spans))
	var walk func(id, parent, depth int)
	walk = func(id, parent, depth int) {
		st := &p.spans[id]
		pos := len(out)
		out = append(out, SpanRecord{
			ID: pos, Parent: parent, Depth: depth, Name: st.name,
			Start: st.start, Dur: st.dur, Allocs: st.allocs, Bytes: st.bytes,
		})
		for _, c := range children[id] {
			walk(c, pos, depth+1)
		}
	}
	for _, r := range children[-1] {
		walk(r, -1, 0)
	}
	return out, nil
}

// Profile bundles one observation of the analyzer: the finished phase
// spans in canonical order plus, when pool telemetry was attached, the run
// pool's aggregate counters. It is what the phase table renders and the
// self-profile exporter serializes.
type Profile struct {
	Spans []SpanRecord
	Pool  *PoolSnapshot
}
