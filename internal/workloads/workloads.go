// Package workloads ports the paper's benchmark programs to the simulated
// tasking runtime: Sort, FFT and Strassen (BOTS), SparseLU (SPEC
// 359.botsspar), KdTree (SPEC 376.kdtree), the Freqmine FPGF loop (Parsec),
// NQueens, Fib, UTS and Blackscholes.
//
// Each workload performs *real* computation on real data — arrays really
// get sorted, matrices really multiplied — so tests can verify results,
// while charging the simulated machine explicit compute cycles and memory
// accesses that mirror the real work's footprint. Crucially, the ports
// preserve the structural properties the paper's analyses hinge on,
// including the bugs: kdtree's missing depth increment, Strassen's
// hard-coded cutoff, SparseLU's cache-hostile bmod loop, Freqmine's
// irregular grain sizes.
//
// Sort, handed a FactStore, does its real work once per input: later runs
// of the same input replay what the first verified run recorded, with the
// same simulated charges and spawns and an ordering check in place of the
// data (facts.go).
package workloads

import (
	"fmt"
	"math/rand/v2"

	"graingraph/internal/rts"
)

// Cost constants: cycles per element for common operations. They size the
// virtual-time cost of real work and were chosen so default-parameter grain
// durations land in the regimes the paper reports (thousands of cycles for
// healthy grains, below the ~1000-cycle parallelization overhead for
// grains the parallel-benefit metric should flag).
const (
	costCompare = 1  // one comparison + branch
	costArith   = 1  // one arithmetic op
	costFlop    = 4  // one floating-point op
	costHash    = 10 // one hash/mix step
)

// newRNG returns a deterministic PCG for workload data generation.
func newRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))
}

// Keyed is implemented by instances whose full input configuration can be
// content-addressed. The experiment harness memoizes simulation runs by
// (workload key, machine config, runtime knobs); two instances with equal
// keys must produce byte-identical traces under equal run configurations.
// All workloads in this package implement it; an instance that does not is
// simply never memoized.
type Keyed interface {
	// Key returns a deterministic fingerprint of the workload identity and
	// every parameter that influences its simulated execution.
	Key() string
}

// paramKey renders a workload's parameter struct into its content-address
// fragment. Params structs hold only values (ints, strings, value slices),
// so the %+v rendering is deterministic and collision-free per kind.
func paramKey(kind string, params any) string {
	return fmt.Sprintf("%s|%+v", kind, params)
}

// Instance is a configured, runnable, verifiable workload.
type Instance interface {
	// Name identifies the workload and variant.
	Name() string
	// Program returns the body to pass to rts.Run. Each invocation of the
	// returned program regenerates input data, so one Instance can run
	// repeatedly (e.g. a 1-core baseline followed by a 48-core run).
	Program() func(rts.Ctx)
	// Verify checks the result of the most recent run; it reports an error
	// describing the first mismatch against a sequential reference.
	Verify() error
}
