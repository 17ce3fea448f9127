// The experiment engine: every simulated run in this package flows through
// simulate(), which layers two mechanisms over rts.Run:
//
//   - A content-addressed memoization cache. Runs are keyed by (workload
//     content key, machine config, runtime knobs), so
//     a run shared between figures — the default Sort/48-core/seed-1 run
//     appears in Figure 4, Figure 5 and the §4.3.1 table — executes exactly
//     once per process, with single-flight semantics under concurrency.
//     The simulator is deterministic, so a cached trace is bit-identical to
//     the rerun it replaces.
//
//   - A bounded worker pool (internal/runpool). Figures batch their
//     independent runs through runBatch/makespanBatch, which fan out across
//     SetParallelism workers and assemble results strictly by submission
//     index — never by completion order — so figure output is byte-identical
//     for every -j, including the serial fallback -j 1.
//
// Each simulation is fully self-contained: rts.Run builds a private
// topology, memory, cache hierarchy and RNG per run, workload instances are
// constructed per request inside the worker that runs them, and the shared
// trace objects handed out by the cache are immutable after finalization
// (profile.Trace's lazy indexes are built under sync.Once).
package expt

import (
	"fmt"
	"sync"

	"graingraph/internal/profile"
	"graingraph/internal/rts"
	"graingraph/internal/runpool"
	"graingraph/internal/workloads"
)

var (
	poolMu sync.Mutex
	pool   = runpool.New(1) // serial by default; cmds and tests opt in to -j
)

// simMemo caches verified simulation runs for the life of the process.
var simMemo = runpool.NewCache[*profile.Trace]()

// SetParallelism bounds how many simulations run concurrently: the -j flag.
// j == 1 is the strict serial fallback (runs execute in submission order on
// the calling goroutine); j <= 0 selects GOMAXPROCS.
//
// SetParallelism is a CLI-only convenience: it swaps the shared
// package-level pool, so it must run once at startup, before regenerating
// figures — never concurrently with analyses. Concurrent callers (servers,
// parallel tests) must not touch it; they pass an explicit pool to
// AnalyzeTraceOn (and to the pool-taking what-if/export entry points)
// instead, which leaves the shared pool alone. A call racing with in-flight
// work would strand chunked kernels mid-fan-out on the swapped-out pool.
func SetParallelism(j int) {
	poolMu.Lock()
	if j == 1 {
		pool = runpool.New(1)
	} else {
		pool = runpool.New(j)
	}
	p := pool
	poolMu.Unlock()
	// Keep pool telemetry attached across pool swaps (worker slots beyond
	// the telemetry's allocation clamp into the last slot).
	p.SetTelemetry(selfTelemetry())
}

// Parallelism returns the current worker bound.
func Parallelism() int {
	poolMu.Lock()
	defer poolMu.Unlock()
	return pool.Workers()
}

func currentPool() *runpool.Runner {
	poolMu.Lock()
	defer poolMu.Unlock()
	return pool
}

// Pool returns the experiment worker pool itself, for callers that drive
// pool-aware stages outside this package (what-if evaluation, sharded
// export) at the same -j the analyses ran with.
func Pool() *runpool.Runner { return currentPool() }

// ResetMemo drops every cached simulation. Benchmarks use it so that
// repeated regenerations measure real work, and the determinism tests use
// it so both sides of a -j comparison execute their runs for real.
func ResetMemo() { simMemo.Reset() }

// MemoStats reports how many simulations actually executed and how many
// requests were served from the cache since process start or the last
// ResetMemo.
func MemoStats() (simulated, memoized uint64) { return simMemo.Stats() }

// simKey content-addresses a run request, covering the workload's full
// input configuration and every runtime knob that shapes the trace. The
// second return is false when the request cannot be fingerprinted (workload
// without a content key, or a caller-supplied topology we cannot hash);
// such runs execute unconditionally.
func simKey(inst workloads.Instance, rcfg rts.Config) (runpool.Key, bool) {
	keyed, ok := inst.(workloads.Keyed)
	if !ok || rcfg.Topology != nil {
		return runpool.Key{}, false
	}
	cfgSig := fmt.Sprintf("%s|c%d|%v|%v|%v|t%d|s%d|%+v|%+v|%+v",
		rcfg.Program, rcfg.Cores, rcfg.Flavor, rcfg.Scheduler, rcfg.Policy,
		rcfg.ThrottleLimit, rcfg.Seed, rcfg.Cache, rcfg.Costs, rcfg.RootLoc)
	// "plain" stays part of the address: recorded artifact names depend
	// on it.
	return runpool.KeyOf(keyed.Key(), cfgSig, "plain"), true
}

// simulate executes (or recalls) one verified simulation run. On a memo hit
// the workload does not re-execute — the cached trace is identical to what
// a rerun would produce, and verification already passed (or its error is
// replayed). The returned InstrumentedRun (nil when Instr is) is a fresh
// per-call record carrying this call's label, so footers and trace exports
// list every request in submission order whether it was simulated,
// deduplicated or replayed.
func simulate(inst workloads.Instance, rcfg rts.Config, label string) (*profile.Trace, *InstrumentedRun, error) {
	ins := Instr
	logged := func(tr *profile.Trace) *InstrumentedRun {
		if ins == nil {
			return nil
		}
		return &InstrumentedRun{Label: label, Trace: tr}
	}
	key, keyed := simKey(inst, rcfg)
	recDir, repDir := artifactDirs()

	// Replay: a saved artifact stands in for the simulation. The recorded
	// run already passed workload verification, and the reader CRC-checks
	// and revalidates the trace, so the replayed trace analyzes
	// byte-identically to the live path with no re-execution.
	if keyed && repDir != "" {
		if tr, found, err := loadArtifact(repDir, key); err != nil {
			return nil, nil, err
		} else if found {
			return tr, logged(tr), nil
		}
	}

	compute := func() (*profile.Trace, error) {
		sp := SelfProfiler().Begin("simulate:" + label)
		defer sp.End()
		tr := rts.Run(rcfg, inst.Program())
		if err := inst.Verify(); err != nil {
			return tr, err
		}
		if keyed && recDir != "" {
			rsp := sp.Child("record:artifact")
			werr := recordArtifact(recDir, key, tr)
			rsp.End()
			if werr != nil {
				return tr, werr
			}
		}
		return tr, nil
	}

	var (
		tr  *profile.Trace
		err error
	)
	if keyed {
		tr, err, _ = simMemo.Do(key, compute)
	} else {
		tr, err = compute()
	}
	if tr == nil {
		return nil, nil, err
	}
	return tr, logged(tr), err
}

// runReq is one simulation request in a figure's batch: a workload factory
// (the instance is constructed inside the worker that runs it, keeping
// mutable workload state goroutine-local), a run configuration, and an
// error-context prefix.
type runReq struct {
	mk   func() workloads.Instance
	cfg  Config
	wrap string
}

func wrapErr(wrap string, err error) error {
	if err == nil || wrap == "" {
		return err
	}
	return fmt.Errorf("%s: %w", wrap, err)
}

// runBatch performs the requests' full analyses (expt.Run each) across the
// pool. Results are ordered by request index; logged runs are
// recorded in request order after the whole batch completes, so the
// observability stream is identical at every parallelism level. All
// requests execute even if some fail; the returned error is the failing
// request with the lowest index.
func runBatch(reqs []runReq) ([]*Result, error) {
	type out struct {
		res   *Result
		iruns []*InstrumentedRun
	}
	outs, err := runpool.Map(currentPool(), len(reqs), func(i int) (out, error) {
		res, iruns, rerr := runOne(reqs[i].mk(), reqs[i].cfg, nil)
		return out{res, iruns}, wrapErr(reqs[i].wrap, rerr)
	})
	results := make([]*Result, len(outs))
	for i, o := range outs {
		record(o.iruns)
		results[i] = o.res
	}
	return results, err
}

// makespanBatch performs the requests as makespan measurements (expt.
// Makespan each) across the pool, with the same ordering guarantees as
// runBatch.
func makespanBatch(reqs []runReq) ([]uint64, error) {
	type out struct {
		mk    uint64
		iruns []*InstrumentedRun
	}
	outs, err := runpool.Map(currentPool(), len(reqs), func(i int) (out, error) {
		mk, iruns, rerr := makespanOne(reqs[i].mk(), reqs[i].cfg)
		return out{mk, iruns}, wrapErr(reqs[i].wrap, rerr)
	})
	makespans := make([]uint64, len(outs))
	for i, o := range outs {
		record(o.iruns)
		makespans[i] = o.mk
	}
	return makespans, err
}
