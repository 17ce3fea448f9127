// Chunked data-parallel primitives over index ranges. Where Map fans out
// independent whole jobs, ParallelFor/ParallelReduce split one large index
// range [0, n) into fixed-size chunks and fan the chunks out — the shape the
// analysis kernels over the columnar graph store need (per-node metric
// loops, sharded export emission, per-level critical-path relaxation).
//
// Determinism contract: chunk boundaries depend only on (n, grain) — never
// on the worker count or scheduling — so chunk c always covers
// [c*grain, min(n, (c+1)*grain)). Bodies receive the chunk index alongside
// the range, letting callers write per-chunk results into pre-sized slots
// and assemble them in index order; ParallelReduce folds per-chunk partials
// strictly in ascending chunk order. A kernel whose chunk body is a pure
// function of its input range therefore produces byte-identical results at
// every worker count, including the strict serial fallback.
package runpool

import (
	"sync"
	"sync/atomic"
	"time"

	"graingraph/internal/obs"
)

// Chunks returns how many fixed-size chunks ParallelFor splits n items into
// at the given grain: ceil(n / grain). Callers sizing per-chunk result
// slots use it to pre-allocate. grain <= 0 is normalized to 1.
func Chunks(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain <= 0 {
		grain = 1
	}
	return (n + grain - 1) / grain
}

// chunkBounds returns chunk c's half-open range under the fixed chunking.
func chunkBounds(c, n, grain int) (lo, hi int) {
	lo = c * grain
	hi = lo + grain
	if hi > n {
		hi = n
	}
	return lo, hi
}

// forChunks drives body over every chunk: serially in ascending chunk order
// when the pool cannot help, otherwise across min(workers, chunks)
// goroutines claiming chunks from an atomic counter. body must confine its
// writes to chunk-indexed (or range-indexed) slots; the chunk assignment to
// workers is scheduling-dependent even though the chunks themselves are not.
// A panicking chunk stops its worker, the others drain the remaining
// chunks, and the panic is re-raised on the calling goroutine.
func forChunks(r *Runner, chunks int, body func(chunk int)) {
	if chunks <= 0 {
		return
	}
	workers := 1
	if r != nil {
		workers = r.workers
	}
	if workers > chunks {
		workers = chunks
	}
	tel := telemetry(r)
	if workers <= 1 {
		if tel == nil {
			for c := 0; c < chunks; c++ {
				body(c)
			}
			return
		}
		serialChunks(tel, chunks, body)
		return
	}
	issued := time.Time{}
	if tel != nil {
		issued = time.Now()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var p panicked
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			defer p.catch()
			workerChunks(tel, w, issued, &next, chunks, body)
		}(w)
	}
	wg.Wait()
	p.reraise()
}

// serialChunks is the instrumented serial fallback: every chunk runs on the
// calling goroutine, attributed to worker slot 0.
func serialChunks(tel *obs.PoolTelemetry, chunks int, body func(chunk int)) {
	start := time.Now()
	for c := 0; c < chunks; c++ {
		t0 := time.Now()
		if c == 0 {
			tel.RecordQueueWait(t0.Sub(start))
		}
		body(c)
		tel.RecordChunk(0, time.Since(t0))
	}
	tel.RecordWorkerSpan(0, time.Since(start))
}

// workerChunks is one worker goroutine's claim loop, optionally timed.
// With tel == nil it is the bare claim loop the uninstrumented pool always
// ran; otherwise it records this worker's participation span, per-chunk
// latencies and the delay until its first claim.
func workerChunks(tel *obs.PoolTelemetry, w int, issued time.Time, next *atomic.Int64, chunks int, body func(chunk int)) {
	if tel == nil {
		for {
			c := int(next.Add(1) - 1)
			if c >= chunks {
				return
			}
			body(c)
		}
	}
	wstart := time.Now()
	first := true
	for {
		c := int(next.Add(1) - 1)
		if c >= chunks {
			break
		}
		t0 := time.Now()
		if first {
			tel.RecordQueueWait(t0.Sub(issued))
			first = false
		}
		body(c)
		tel.RecordChunk(w, time.Since(t0))
	}
	tel.RecordWorkerSpan(w, time.Since(wstart))
}

// ParallelFor runs body over [0, n) in fixed chunks of size grain across
// the pool. body receives the chunk index and its half-open range
// [lo, hi); with a nil or single-worker pool, chunks run sequentially in
// ascending index order on the calling goroutine. A panicking body reaches
// the caller as a panic on the calling goroutine, whatever the pool.
func ParallelFor(r *Runner, n, grain int, body func(chunk, lo, hi int)) {
	if grain <= 0 {
		grain = 1
	}
	forChunks(r, Chunks(n, grain), func(c int) {
		lo, hi := chunkBounds(c, n, grain)
		body(c, lo, hi)
	})
}

// ParallelReduce folds body's per-chunk partials into one value. Each chunk
// computes body(chunk, lo, hi, identity) independently; the partials are
// then merged strictly in ascending chunk order, so any merge that is
// associative over adjacent ranges — it need not be commutative — yields
// the same result at every worker count as a single serial pass.
func ParallelReduce[T any](r *Runner, n, grain int, identity T, body func(chunk, lo, hi int, acc T) T, merge func(a, b T) T) T {
	if grain <= 0 {
		grain = 1
	}
	chunks := Chunks(n, grain)
	if chunks == 0 {
		return identity
	}
	if chunks == 1 {
		return merge(identity, body(0, 0, n, identity))
	}
	partials := make([]T, chunks)
	forChunks(r, chunks, func(c int) {
		lo, hi := chunkBounds(c, n, grain)
		partials[c] = body(c, lo, hi, identity)
	})
	acc := identity
	for c := 0; c < chunks; c++ {
		acc = merge(acc, partials[c])
	}
	return acc
}
