package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// The benchmark's own span recorder. A traced run wraps every call into a
// layer in a span (name, start, end, parent, op id), keeps the spans in
// memory and writes them out when the run ends. Span names are
// "<layer>.<call>", so a layer's self time is the sum over its spans of
// duration minus what the span's children cover. The program's own obs
// spans stay off: the benchmark measures from outside.

type spanRecord struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for an op's root span
	Op     int     `json:"op"`     // spans of one timed op share this
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the recorder started
	End    float64 `json:"end_s"`
}

type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRecord
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// span is an open span. A nil *span (tracing off) accepts every method and
// does nothing, so measured code is written once for both kinds of run.
type span struct {
	rec *recorder
	id  int
	op  int
}

// root opens the root span of timed op number op.
func (r *recorder) root(op int, name string) *span {
	if r == nil {
		return nil
	}
	return r.open(-1, op, name)
}

func (r *recorder) open(parent, op int, name string) *span {
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, spanRecord{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	r.mu.Unlock()
	return &span{rec: r, id: id, op: op}
}

func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.rec.open(s.id, s.op, name)
}

func (s *span) end() {
	if s == nil {
		return
	}
	now := time.Since(s.rec.t0).Seconds()
	s.rec.mu.Lock()
	s.rec.spans[s.id].End = now
	s.rec.mu.Unlock()
}

// in runs f inside a child span of s.
func (s *span) in(name string, f func()) {
	c := s.child(name)
	f()
	c.end()
}

func (r *recorder) snapshot() []spanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]spanRecord(nil), r.spans...)
}

func writeSpans(path string, spans []spanRecord) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// coveredBy returns how much of [lo, hi] the intervals cover, counting
// overlapping intervals once (children of a concurrent op overlap).
func coveredBy(lo, hi float64, ivs [][2]float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	covered, at := 0.0, lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < at {
			a = at
		}
		if b > hi {
			b = hi
		}
		if b > a {
			covered += b - a
			at = b
		}
	}
	return covered
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover.
func selfTimes(spans []spanRecord) []float64 {
	kids := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		self[i] = (s.End - s.Start) - coveredBy(s.Start, s.End, kids[s.ID])
	}
	return self
}

// layerOf is the layer a span belongs to: the part of its name before the
// first '.'.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// layerSelfTimes sums the timed ops' self time by layer, leaving out the op
// root spans (their self time is what no layer span covered) and the probe
// spans (op id -1), which belong to no session.
func layerSelfTimes(spans []spanRecord) map[string]float64 {
	out := make(map[string]float64)
	self := selfTimes(spans)
	for i, s := range spans {
		if s.Parent >= 0 && s.Op >= 0 {
			out[layerOf(s.Name)] += self[i]
		}
	}
	return out
}

// spanCoverage is the share of the op root spans' time that child spans
// cover: how much of the measured sessions the trace attributes to a layer.
func spanCoverage(spans []spanRecord) float64 {
	self := selfTimes(spans)
	total, uncovered := 0.0, 0.0
	for i, s := range spans {
		if s.Parent < 0 && s.Op >= 0 && s.End >= 0 {
			total += s.End - s.Start
			uncovered += self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - uncovered/total
}

// spanCost measures what recording one span costs, so a traced run can
// report its overhead as spans recorded x cost / traced time.
func spanCost() float64 {
	const n = 20000
	r := newRecorder()
	root := r.root(0, "bench.cost")
	start := time.Now()
	for i := 0; i < n; i++ {
		root.child("bench.cost.child").end()
	}
	return time.Since(start).Seconds() / n
}
