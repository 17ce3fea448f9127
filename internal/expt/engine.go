// The experiment engine: every simulated run in this package flows through
// simulate(), which layers three mechanisms over rts.Run:
//
//   - A content-addressed memoization cache. Runs are keyed by (workload
//     content key, machine config, runtime knobs), so
//     a run shared between figures — the default Sort/48-core/seed-1 run
//     appears in Figure 4, Figure 5 and the §4.3.1 table — executes exactly
//     once per process, with single-flight semantics under concurrency.
//     The simulator is deterministic, so a cached trace is bit-identical to
//     the rerun it replaces.
//
//   - An input-facts store (workloads.FactStore). A run that misses the
//     memo but shares its input with an earlier verified run — Sort across
//     Figure 1's flavours and page policies — replays what the input
//     determined (Sort's comparison counts and merge splits) instead of
//     redoing the real work. The trace is identical either way. One run
//     per input produces the facts at every -j: a run of the same input
//     that starts meanwhile waits for them.
//
//   - A bounded worker pool (internal/runpool). Figures batch their
//     independent run requests through runAll, which fans them out across
//     SetParallelism workers and assembles results and run logs strictly by
//     submission index — never by completion order — so figure output is
//     byte-identical for every -j, including the serial fallback -j 1.
//
// Each simulation is fully self-contained: rts.Run builds a private
// topology, memory and RNG per run and holds its cache hierarchy alone
// until the run ends (cache.New hands out a released hierarchy of the same
// geometry reset to the fresh state, so reuse is invisible in the results),
// workload instances are constructed per request inside the worker that
// runs them, and the shared trace objects handed out by the cache are
// immutable after finalization (profile.Trace's lazy indexes are built
// under sync.Once).
package expt

import (
	"fmt"
	"sync"

	"graingraph/internal/obs"
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

// inputFacts holds what verified live runs determined about their inputs
// (workloads.FactStore), so a simulation that misses simMemo but shares
// its input with an earlier run replays the input's facts instead of
// redoing the real work. It lives and resets with simMemo.
var inputFacts = workloads.NewFactStore()

// SetParallelism bounds how many simulations run concurrently: the -j flag.
// j == 1 is the strict serial fallback (runs execute in submission order on
// the calling goroutine); j <= 0 selects GOMAXPROCS.
//
// SetParallelism is a CLI-only convenience: it swaps the shared
// package-level pool, so it must run once at startup, before regenerating
// figures — never concurrently with analyses. Concurrent callers (servers,
// parallel tests) must not touch it; they pass an explicit pool to
// AnalyzeDecodedOn (and to the pool-taking what-if/export entry points)
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

// parallelism returns the current worker bound.
func parallelism() int {
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

// ResetMemo drops every cached simulation and every recorded input fact.
// Benchmarks use it so that repeated regenerations measure real work, and
// the determinism tests use it so both sides of a -j comparison execute
// their runs for real.
func ResetMemo() {
	simMemo.Reset()
	inputFacts.Reset()
}

// MemoStats reports how many simulations actually executed and how many
// requests were served from the cache since process start or the last
// ResetMemo.
func MemoStats() (simulated, memoized uint64) { return simMemo.Stats() }

// FactStats reports how many inputs' facts simulations recorded and how
// many simulations replayed them instead of doing the real work, since
// process start or the last ResetMemo.
func FactStats() (recorded, replayed uint64) { return inputFacts.Stats() }

// simKey content-addresses a run request, covering the workload's full
// input configuration and every runtime knob that shapes the trace. The
// second return is false when the workload has no content key; such runs
// execute unconditionally.
func simKey(inst workloads.Instance, rcfg rts.Config) (runpool.Key, bool) {
	keyed, ok := inst.(workloads.Keyed)
	if !ok {
		return runpool.Key{}, false
	}
	// The trailing ":0" and "plain" stay part of the address, though no
	// knob sets them any more (the first is how a zero root location
	// formatted): recorded artifact names depend on them.
	cfgSig := fmt.Sprintf("%s|c%d|%v|%v|%v|t%d|s%d|%+v|%+v|:0",
		rcfg.Program, rcfg.Cores, rcfg.Flavor, rcfg.Scheduler, rcfg.Policy,
		rcfg.ThrottleLimit, rcfg.Seed, rcfg.Cache, rcfg.Costs)
	return runpool.KeyOf(keyed.Key(), cfgSig, "plain"), true
}

// simulate executes (or recalls) one verified simulation run. On a memo hit
// the workload does not re-execute — the cached trace is identical to what
// a rerun would produce, and verification already passed (or its error is
// replayed). label names the run's simulate span.
func simulate(inst workloads.Instance, rcfg rts.Config, label string) (*profile.Trace, error) {
	key, keyed := simKey(inst, rcfg)
	recDir, repDir := artifactDirs()

	// Replay: a saved artifact stands in for the simulation. The recorded
	// run already passed workload verification, and the reader CRC-checks
	// and revalidates the trace, so the replayed trace analyzes
	// byte-identically to the live path with no re-execution.
	if keyed && repDir != "" {
		if tr, found, err := loadArtifact(repDir, key); err != nil {
			return nil, err
		} else if found {
			return tr, nil
		}
	}

	compute := func() (*profile.Trace, error) {
		// The simulate span is attributed by its children: run (the
		// simulation and its verification) and, when recording, the
		// artifact write.
		sp := SelfProfiler().Begin("simulate:" + label)
		defer sp.End()
		if fu, ok := inst.(workloads.FactUser); ok {
			fu.UseFacts(inputFacts)
		}
		runSp := sp.Child("run")
		tr := rts.Run(rcfg, inst.Program())
		err := inst.Verify()
		runSp.End()
		if err != nil {
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
	return tr, err
}

// runReq is one run request: a workload factory (the instance is
// constructed inside the worker that runs it, keeping mutable workload
// state goroutine-local), a run configuration, an error-context prefix,
// and whether it only measures the makespan — a makespan request wants
// the trace but neither the baseline nor the analysis.
type runReq struct {
	mk       func() workloads.Instance
	cfg      Config
	wrap     string
	makespan bool
}

// do performs one request: the 1-core baseline when the config asks for
// one, the run itself, and the analysis, whose phase spans are rooted
// under parent (see analyze). The Result carries the runs performed, in
// order; a makespan request's Result holds only the trace and its run.
func (q runReq) do(parent *obs.Span) (*Result, error) {
	inst := q.mk()
	rcfg := rtsConfig(inst, q.cfg)
	var runs []*LoggedRun
	run := func(rc rts.Config, suffix string) (*profile.Trace, error) {
		label := runLabel(inst.Name(), q.cfg, rc.Cores, suffix)
		tr, err := simulate(inst, rc, label)
		if err != nil {
			return nil, err
		}
		runs = append(runs, &LoggedRun{Label: label, Trace: tr})
		return tr, nil
	}

	if q.makespan {
		tr, err := run(rcfg, "makespan")
		if err != nil {
			return nil, wrapErr(q.wrap, err)
		}
		return &Result{Trace: tr, RunLog: RunLog{runs}}, nil
	}
	var baseline *profile.Trace
	if q.cfg.Baseline {
		bcfg := rcfg
		bcfg.Cores = 1
		tr, err := run(bcfg, "baseline")
		if err != nil {
			return nil, wrapErr(q.wrap, fmt.Errorf("baseline run: %w", err))
		}
		baseline = tr
	}
	tr, err := run(rcfg, "")
	if err != nil {
		return nil, wrapErr(q.wrap, fmt.Errorf("parallel run: %w", err))
	}
	res := analyze(nil, tr, baseline, q.cfg, parent)
	runs[len(runs)-1].graph = res.Graph
	res.Runs = runs
	return res, nil
}

func wrapErr(wrap string, err error) error {
	if wrap == "" {
		return err
	}
	return fmt.Errorf("%s: %w", wrap, err)
}

// runAll performs a figure's batch of requests across the pool. Results
// are ordered by request index — never by completion order — so figure
// output and run logs are byte-identical at every -j. All requests
// execute even if some fail; the returned error is the failing request
// with the lowest index.
func runAll(reqs []runReq) ([]*Result, error) {
	return runpool.Map(currentPool(), len(reqs), func(i int) (*Result, error) {
		return reqs[i].do(nil)
	})
}
