package runpool

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// boom is a panic value no runtime error could produce, so a test can tell
// the original value from a wrapped or replaced one.
type boom struct{ chunk int }

// TestFanOutPanicReachesCaller pins that a panicking job or chunk becomes a
// panic on the calling goroutine, with its original value, at every worker
// count — never a crash from a worker goroutine — and that every worker has
// returned by then, after the other jobs drained.
func TestFanOutPanicReachesCaller(t *testing.T) {
	const n = 64
	fanOuts := map[string]func(r *Runner, ran *atomic.Int64){
		"Map": func(r *Runner, ran *atomic.Int64) {
			Map(r, n, func(i int) (int, error) {
				ran.Add(1)
				if i == 5 {
					panic(boom{i})
				}
				return i, nil
			})
		},
		"ParallelFor": func(r *Runner, ran *atomic.Int64) {
			ParallelFor(r, n, 1, func(c, _, _ int) {
				ran.Add(1)
				if c == 5 {
					panic(boom{c})
				}
			})
		},
		"ParallelReduce": func(r *Runner, ran *atomic.Int64) {
			ParallelReduce(r, n, 1, 0, func(c, _, _ int, acc int) int {
				ran.Add(1)
				if c == 5 {
					panic(boom{c})
				}
				return acc + 1
			}, func(a, b int) int { return a + b })
		},
	}
	for name, fanOut := range fanOuts {
		for _, workers := range []int{1, 4} {
			before := runtime.NumGoroutine()
			var ran atomic.Int64
			got := func() (v any) {
				defer func() { v = recover() }()
				fanOut(New(workers), &ran)
				return nil
			}()
			if got != (boom{5}) {
				t.Errorf("%s at %d workers: caller recovered %#v, want boom{5}", name, workers, got)
			}
			if workers > 1 && ran.Load() != n {
				t.Errorf("%s at %d workers: %d of %d jobs ran, want the others drained", name, workers, ran.Load(), n)
			}
			// Worker goroutines are gone once the panic reaches the caller;
			// allow the runtime a moment to retire them.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%s at %d workers: %d goroutines before, %d after", name, workers, before, after)
			}
		}
	}
}
