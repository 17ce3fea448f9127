package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	"graingraph/internal/expt"
	"graingraph/internal/profile"
	"graingraph/internal/runpool"
)

// A workload is one user session measured cold and warm. README.md says
// why each exists and which layers it exercises or bypasses.
type workload struct {
	name string
	run  func(c *runCtx) error
}

var allWorkloads = []*workload{
	{"figures", runFigures},
	{"artifact-read", runArtifactRead},
	{"artifact-write", runArtifactWrite},
	{"serve", runServe},
}

func workloadNames() []string {
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) *workload {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runCtx is what a workload's run function works with.
type runCtx struct {
	o    options
	res  *result
	rec  *recorder // nil unless this is a traced run
	pool *runpool.Runner
	v    *verifier
	ops  int // timed ops started, the span op id

	giant *profile.Trace // the giant run probeSimulator makes and probeAnalysis takes apart
}

// execute runs one workload in this process.
func execute(w *workload, o options) (*result, error) {
	start := time.Now()
	res := newResult(o)
	expt.SetParallelism(jobs())
	c := &runCtx{o: o, res: res, pool: expt.Pool(), v: newVerifier()}
	if o.trace {
		c.rec = newRecorder()
	}
	var err error
	if res.Host["start"], err = hostProbesInChild(); err != nil {
		return nil, err
	}
	if err := w.run(c); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if o.trace {
		res.keepForTrace()
		if err := runLayerProbes(c); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		if err := c.finishTrace(); err != nil {
			return nil, err
		}
	}
	if res.Host["end"], err = hostProbesInChild(); err != nil {
		return nil, err
	}
	if o.trace {
		s, e := res.Host["start"], res.Host["end"]
		res.set("host.spin_s", "s", (s.SpinS+e.SpinS)/2)
		res.set("host.memtouch_s", "s", (s.MemtouchS+e.MemtouchS)/2)
		res.set("host.fault_s", "s", (s.FaultS+e.FaultS)/2)
	}
	res.Problems = c.v.problems
	res.DurationS = time.Since(start).Seconds()
	return res, nil
}

// hostProbesInChild runs the host probes in a child process: the fault
// probe touches fresh memory, which must not count towards the measuring
// process's peak_rss_mb.
func hostProbesInChild() (hostProbes, error) {
	var p hostProbes
	self, err := os.Executable()
	if err != nil {
		return p, err
	}
	out, err := exec.Command(self, "hostprobe").Output()
	if err != nil {
		return p, fmt.Errorf("host probe child: %w", err)
	}
	return p, json.Unmarshal(out, &p)
}

func cmdHostProbe() error {
	p, err := runHostProbes()
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(p)
}

// op is one timed user session.
type op struct {
	kind  string               // "cold" or "warm"
	prep  func() error         // untimed preparation, may be nil
	run   func(sp *span) error // the timed session
	check func() bool          // untimed verification of what run produced; false fails the op
}

// timeOp runs one op: preparation and a GC outside the timer, the session
// inside it, verification after it. Dirty file data is flushed first, so
// that one op's writeback does not run under the next op's timer. The
// resident-set high-water mark is reset before the session and read right
// after it, so what a cold op reports is the peak it reached itself, on
// top of whatever earlier ops left resident, and not the verifier's or the
// set-up's. A session that errs or fails verification is a failed op and
// contributes no sample, so a wrong answer can never read as a fast one.
// Unrecorded ops are the discarded first repetition.
func (c *runCtx) timeOp(o op, record bool) error {
	if o.prep != nil {
		if err := o.prep(); err != nil {
			return fmt.Errorf("preparing %s op: %w", o.kind, err)
		}
	}
	runtime.GC()
	syscall.Sync()
	resetPeakRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := c.rec.root(c.ops, "op."+o.kind)
	c.ops++
	start := time.Now()
	err := o.run(sp)
	took := time.Since(start).Seconds()
	sp.end()
	runtime.ReadMemStats(&after)
	if !record {
		return err
	}
	rss, rssErr := peakRSSMB()
	if rssErr != nil {
		return rssErr
	}
	c.res.Attempted++
	if err != nil {
		c.v.fail("%s op: %v", o.kind, err)
	}
	if err != nil || (o.check != nil && !o.check()) {
		c.res.Failed++
		return nil
	}
	c.res.sample(o.kind+"_s", took)
	if o.kind == "cold" {
		c.res.sample("alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		c.res.sample("peak_rss_mb", rss)
	}
	return nil
}

// measure alternates cold and warm ops, so a slow minute on the host hits
// both, until the wall budget is spent (at least minPairs pairs). A traced
// run spends half the budget here (at least one pair) and then makes the
// layer probes. The discard ops run first, unrecorded: a process's first
// repetition grows the heap, touches its pages and creates its files,
// which costs it half as much again.
func (c *runCtx) measure(minPairs int, cold, warm op, discard ...op) error {
	budget := c.o.seconds
	if c.o.trace {
		budget, minPairs = budget/2, 1
	}
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	for _, o := range discard {
		if err := c.timeOp(o, false); err != nil {
			return fmt.Errorf("discarded %s op: %w", o.kind, err)
		}
	}
	for pairs := 0; pairs < minPairs || time.Now().Before(deadline); pairs++ {
		for _, o := range []op{cold, warm} {
			if err := c.timeOp(o, true); err != nil {
				return err
			}
		}
	}
	c.res.setMedian("cold_s", "s")
	c.res.setMedian("warm_s", "s")
	c.res.setMedian("alloc_mb_per_op", "MB")
	return nil
}

// finishInProcess reports the metrics every in-process workload reads the
// same way.
func (c *runCtx) finishInProcess(storedMB float64) {
	c.res.setMedian("peak_rss_mb", "MB")
	c.res.set("stored_mb", "MB", storedMB)
}

// finishTrace writes the span file and reports how much of the traced
// sessions the spans attribute and what recording them cost.
func (c *runCtx) finishTrace() error {
	spans := c.rec.snapshot()
	dir, err := outDir()
	if err != nil {
		return err
	}
	if err := writeSpans(dir+"/"+c.o.workload+".spans.json", spans); err != nil {
		return err
	}
	traced, sessionSpans := 0.0, 0
	for _, s := range spans {
		if s.Op >= 0 {
			sessionSpans++
		}
		if s.End >= 0 && s.Parent < 0 && s.Op >= 0 {
			traced += s.End - s.Start
		}
	}
	overhead := 0.0
	if traced > 0 {
		overhead = float64(sessionSpans) * spanCost() / traced
	}
	c.res.set("bench.span_coverage", "ratio", spanCoverage(spans))
	c.res.set("bench.trace_overhead_frac", "ratio", overhead)
	for layer, self := range layerSelfTimes(spans) {
		c.res.extra("self_s."+layer, "s", self)
	}
	return nil
}
