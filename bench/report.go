package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef names one metric and its unit. BENCHMARK.json lists exactly
// these (a test keeps the two in step).
type metricDef struct {
	Name  string
	Unit  string
	Bound float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEndMetrics are what an untraced run prints per workload, in report
// order. README.md has their meanings and the runs behind the bounds.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", 0.25},          // median set-up: input generation + preparation before the first timed op
	{"cold_s", "s", 0.25},           // median cold op: nothing derived is cached
	{"warm_s", "s", 0.25},           // median warm op: prepared state exists
	{"alloc_mb_per_op", "MB", 0.02}, // TotalAlloc delta of the measuring process per cold op
	{"peak_rss_mb", "MB", 0.25},     // median resident-set peak of a cold op; serve: ru_maxrss of grainserved
	{"stored_mb", "MB", 0.01},       // bytes the workload leaves on disk
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's full record: bench/out/<workload>.json holds it and
// the last line of stdout carries its contract fields.
type result struct {
	Workload  string                `json:"workload"`
	Traced    bool                  `json:"traced"`
	Env       environment           `json:"environment"`
	Seed      uint64                `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Smoke     bool                  `json:"smoke,omitempty"`
	DurationS float64               `json:"run_duration_s"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Problems  []string              `json:"problems,omitempty"`
	Samples   map[string][]float64  `json:"samples"` // raw samples behind each median; len = repetition count
	Metrics   map[string]metric     `json:"metrics"`
	Extras    map[string]metric     `json:"extras,omitempty"` // workload-specific per-layer numbers outside the contract list
	Digests   map[string]string     `json:"sha256,omitempty"`
	Inputs    map[string]float64    `json:"inputs,omitempty"` // sizes of the generated inputs
	Host      map[string]hostProbes `json:"host"`             // "start" and "end"
}

func newResult(o options) *result {
	return &result{
		Workload: o.workload, Traced: o.trace, Env: currentEnvironment(),
		Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke,
		Samples: make(map[string][]float64), Metrics: make(map[string]metric),
		Extras: make(map[string]metric), Digests: make(map[string]string),
		Inputs: make(map[string]float64), Host: make(map[string]hostProbes),
	}
}

func (r *result) sample(name string, v float64) { r.Samples[name] = append(r.Samples[name], v) }

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{v, unit} }

func (r *result) extra(name, unit string, v float64) { r.Extras[name] = metric{v, unit} }

// keepForTrace moves the end-to-end metrics of a traced run, which the
// spans slow down, out of the way of the per-layer metrics it reports.
func (r *result) keepForTrace() {
	for name, m := range r.Metrics {
		r.Extras["traced."+name] = m
	}
	r.Metrics = make(map[string]metric)
}

// setMedian reports the median of the samples collected under name.
func (r *result) setMedian(name, unit string) { r.set(name, unit, median(r.Samples[name])) }

// contractLine is the last line of stdout.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes the human-readable report, saves the full record under
// bench/out/ and ends with the contract's JSON line.
func (r *result) print(w io.Writer) error {
	kind := "end-to-end, tracing off"
	if r.Traced {
		kind = "per-layer, traced"
	}
	fmt.Fprintf(w, "== %s (%s)  commit %s  %s  nproc %d  -j %d  seed %d  %.1f s\n",
		r.Workload, kind, r.Env.Commit, r.Env.GoVersion, r.Env.NumCPU, r.Env.Jobs, r.Seed, r.DurationS)
	printMetrics(w, r.Metrics, r.Samples)
	if len(r.Extras) > 0 {
		fmt.Fprintln(w, "-- not on the result line (this kind of run or this workload only)")
		printMetrics(w, r.Extras, r.Samples)
	}
	for _, k := range sortedKeys(r.Inputs) {
		fmt.Fprintf(w, "   input %-28s %.0f\n", k, r.Inputs[k])
	}
	for _, k := range sortedKeys(r.Digests) {
		fmt.Fprintf(w, "   sha256 %-27s %.16s\n", k, r.Digests[k])
	}
	for _, k := range []string{"start", "end"} {
		h := r.Host[k]
		fmt.Fprintf(w, "   host %-5s spin %.4f s  memtouch %.4f s  fault %.4f s\n", k, h.SpinS, h.MemtouchS, h.FaultS)
	}
	fmt.Fprintf(w, "   ops attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   FAILED %s\n", p)
	}
	if err := r.save(); err != nil {
		return err
	}
	line, err := json.Marshal(contractLine{
		Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func printMetrics(w io.Writer, ms map[string]metric, samples map[string][]float64) {
	for _, k := range sortedKeys(ms) {
		m := ms[k]
		fmt.Fprintf(w, "   %-36s %14.6g %-6s", k, m.Value, m.Unit)
		if n := len(samples[strings.TrimPrefix(k, "traced.")]); n > 0 {
			fmt.Fprintf(w, " n=%d", n)
		}
		fmt.Fprintln(w)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// outDir is bench/out under the repository root.
func outDir() (string, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(root, "bench", "out")
	return dir, os.MkdirAll(dir, 0o755)
}

func (r *result) save() error {
	dir, err := outDir()
	if err != nil {
		return err
	}
	name := r.Workload + ".json"
	if r.Traced {
		name = r.Workload + ".trace.json"
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
