// Package runpool is the parallel experiment engine's substrate: a bounded
// worker pool that fans independent jobs out across OS threads with
// deterministic, submission-ordered result assembly, plus a
// content-addressed memoization cache with single-flight semantics.
//
// The figure regenerators in internal/expt are embarrassingly parallel —
// Figure 1 alone is 35 independent simulations — but their output must be
// byte-identical regardless of worker count. Map therefore keys every
// result by its submission index, never by completion order, and picks the
// lowest-index error when several jobs fail, so -j 1 and -j N report the
// same failure. The Cache deduplicates runs shared between figures (the
// same Sort/MIR/48-core run appears in Figures 4, 5 and the §4.3.1 table):
// concurrent requests for one key execute the computation exactly once and
// share the result.
package runpool

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"graingraph/internal/obs"
)

// Runner is a bounded worker pool. The zero value is not usable; construct
// with New. A Runner holds no per-job state and may be shared freely.
type Runner struct {
	workers int
	// tel, when attached, receives per-worker busy/participation times,
	// chunk counts and latencies for every fan-out through this runner.
	// Nil costs one pointer test per fan-out and per chunk.
	tel *obs.PoolTelemetry
}

// New returns a Runner executing at most workers jobs concurrently.
// workers <= 0 selects GOMAXPROCS.
func New(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers}
}

// Workers returns the concurrency bound.
func (r *Runner) Workers() int { return r.workers }

// SetTelemetry attaches (or, with nil, detaches) pool telemetry. Attach
// before submitting work: the field is read without synchronization by
// running fan-outs. A nil runner ignores the call.
func (r *Runner) SetTelemetry(t *obs.PoolTelemetry) {
	if r != nil {
		r.tel = t
	}
}

// telemetry returns r's telemetry for use inside fan-outs (nil when
// detached or when r itself is nil).
func telemetry(r *Runner) *obs.PoolTelemetry {
	if r == nil {
		return nil
	}
	return r.tel
}

// Map runs fn(0..n-1) across the pool and returns the results in index
// order. With one worker, jobs run strictly sequentially in index order on
// the calling goroutine — the serial fallback is exactly the legacy
// behaviour, not a degenerate concurrent schedule. All jobs run to
// completion even when some fail; the returned error is the non-nil error
// with the lowest index, so which failure is reported does not depend on
// scheduling. A job that panics stops its worker; the others drain the
// remaining jobs, and the panic is re-raised on the calling goroutine.
func Map[T any](r *Runner, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	tel := telemetry(r)
	if r == nil || r.workers <= 1 || n <= 1 {
		if tel == nil || n == 0 {
			for i := 0; i < n; i++ {
				out[i], errs[i] = fn(i)
			}
		} else {
			start := time.Now()
			for i := 0; i < n; i++ {
				t0 := time.Now()
				if i == 0 {
					tel.RecordQueueWait(t0.Sub(start))
				}
				out[i], errs[i] = fn(i)
				tel.RecordChunk(0, time.Since(t0))
			}
			tel.RecordWorkerSpan(0, time.Since(start))
		}
	} else {
		workers := r.workers
		if workers > n {
			workers = n
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
				var wstart time.Time
				if tel != nil {
					wstart = time.Now()
				}
				first := true
				for {
					i := int(next.Add(1) - 1)
					if i >= n {
						break
					}
					var t0 time.Time
					if tel != nil {
						t0 = time.Now()
						if first {
							tel.RecordQueueWait(t0.Sub(issued))
							first = false
						}
					}
					out[i], errs[i] = fn(i)
					if tel != nil {
						tel.RecordChunk(w, time.Since(t0))
					}
				}
				if tel != nil {
					tel.RecordWorkerSpan(w, time.Since(wstart))
				}
			}(w)
		}
		wg.Wait()
		p.reraise()
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// panicked holds the first panic of a fan-out's worker goroutines. A
// worker defers catch; after the wait, the caller's reraise repeats the
// panic on its own goroutine, where it can be recovered, instead of letting
// it kill the process from a goroutine nobody can recover on.
type panicked struct {
	mu  sync.Mutex
	val any
	hit bool
}

func (p *panicked) catch() {
	if v := recover(); v != nil {
		p.mu.Lock()
		if !p.hit {
			p.val, p.hit = v, true
		}
		p.mu.Unlock()
	}
}

func (p *panicked) reraise() {
	if p.hit {
		panic(p.val)
	}
}

// Key is a content address: the SHA-256 of its parts. Fixed-size and
// comparable, so it serves directly as a map key.
type Key [sha256.Size]byte

// KeyOf hashes the parts (length-prefixed, so ("ab","c") != ("a","bc"))
// into a content address.
func KeyOf(parts ...string) Key {
	h := sha256.New()
	var lenbuf [8]byte
	for _, p := range parts {
		n := len(p)
		for i := 0; i < 8; i++ {
			lenbuf[i] = byte(n >> (8 * i))
		}
		h.Write(lenbuf[:])
		h.Write([]byte(p))
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// KeyOfBytes hashes raw byte blobs (length-prefixed like KeyOf) into a
// content address. The experiment engine uses it to memoize grain-profile
// artifact decodes by file content: two reads of the same .ggp bytes share
// one decode, while any mutation produces a different address.
func KeyOfBytes(parts ...[]byte) Key {
	h := sha256.New()
	var lenbuf [8]byte
	for _, p := range parts {
		n := len(p)
		for i := 0; i < 8; i++ {
			lenbuf[i] = byte(n >> (8 * i))
		}
		h.Write(lenbuf[:])
		h.Write(p)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Hex returns the key as lowercase hex, usable as a filename.
func (k Key) Hex() string { return hex.EncodeToString(k[:]) }

// Cache memoizes computations by content address with single-flight
// semantics: concurrent Do calls for the same key run compute exactly once
// and share the outcome. Errors are cached too — the simulator is
// deterministic, so a failed run would fail identically if repeated.
//
// By default the cache is unbounded: the CLIs regenerate a fixed figure set
// and exit, so every distinct result is worth keeping for the life of the
// process. Long-running processes (the grainserved artifact server) must
// bound it with SetCapacity, which turns on least-recently-used eviction of
// completed entries; in-flight computations are never evicted, so
// single-flight waiters always receive the result they queued for.
type Cache[V any] struct {
	mu  sync.Mutex
	m   map[Key]*cacheEntry[V]
	cap int // max entries; <= 0 means unbounded
	// LRU list of entries, most recently used first. Only entries present
	// in m are linked; eviction walks from the tail, skipping in-flight
	// entries.
	front, back *cacheEntry[V]

	hits      atomic.Uint64
	runs      atomic.Uint64
	evictions atomic.Uint64
}

type cacheEntry[V any] struct {
	key      Key
	done     chan struct{}
	val      V
	err      error
	inflight bool
	// LRU links, guarded by Cache.mu.
	prev, next *cacheEntry[V]
}

// NewCache returns an empty, unbounded cache.
func NewCache[V any]() *Cache[V] {
	return &Cache[V]{m: make(map[Key]*cacheEntry[V])}
}

// SetCapacity bounds the cache to at most n entries, evicting the least
// recently used completed entries when the bound is exceeded; n <= 0
// restores the default unbounded behaviour. In-flight computations are
// never evicted, so the entry count may transiently exceed n while more
// than n computations are running. Lowering the capacity evicts
// immediately.
func (c *Cache[V]) SetCapacity(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = n
	c.evictLocked()
}

// pushFront links e as the most recently used entry.
func (c *Cache[V]) pushFront(e *cacheEntry[V]) {
	e.prev = nil
	e.next = c.front
	if c.front != nil {
		c.front.prev = e
	}
	c.front = e
	if c.back == nil {
		c.back = e
	}
}

// unlink removes e from the LRU list.
func (c *Cache[V]) unlink(e *cacheEntry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.back = e.prev
	}
	e.prev, e.next = nil, nil
}

// touch marks e as most recently used.
func (c *Cache[V]) touch(e *cacheEntry[V]) {
	if c.front == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// evictLocked drops least-recently-used completed entries until the cache
// is within capacity (or only in-flight entries remain). Callers hold mu.
func (c *Cache[V]) evictLocked() {
	if c.cap <= 0 {
		return
	}
	for e := c.back; e != nil && len(c.m) > c.cap; {
		prev := e.prev
		if !e.inflight {
			c.unlink(e)
			delete(c.m, e.key)
			c.evictions.Add(1)
		}
		e = prev
	}
}

// Do returns the cached outcome for key, computing it via compute on first
// use. hit reports whether the value was served from the cache (including
// waiting on another goroutine's in-flight computation). A compute that
// panics is not memoized: the panic propagates to this caller, goroutines
// waiting on the key get an error naming it, and the next Do recomputes.
func (c *Cache[V]) Do(key Key, compute func() (V, error)) (v V, err error, hit bool) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		c.touch(e)
		c.mu.Unlock()
		<-e.done
		c.hits.Add(1)
		return e.val, e.err, true
	}
	e := &cacheEntry[V]{key: key, done: make(chan struct{}), inflight: true}
	c.m[key] = e
	c.pushFront(e)
	c.evictLocked()
	c.mu.Unlock()

	c.runs.Add(1)
	returned := false
	defer func() {
		if returned {
			return
		}
		// compute panicked (or exited its goroutine): fail the waiters rather
		// than leave them blocked on done, and drop the entry so a later Do
		// computes afresh. The panic keeps propagating from here.
		r := recover()
		e.err = fmt.Errorf("runpool: memoized computation panicked: %v", r)
		c.settle(e, true)
		if r != nil {
			panic(r)
		}
	}()
	e.val, e.err = compute()
	returned = true
	c.settle(e, false)
	return e.val, e.err, false
}

// settle publishes e's outcome to its waiters and marks it complete. A
// dropped entry leaves the cache instead of being memoized.
func (c *Cache[V]) settle(e *cacheEntry[V], drop bool) {
	close(e.done)
	c.mu.Lock()
	defer c.mu.Unlock()
	e.inflight = false
	if drop && c.m[e.key] == e { // not already gone with a Reset
		c.unlink(e)
		delete(c.m, e.key)
	}
	// The insert in Do may have left the cache over capacity when the tail
	// was in flight; completing an entry is the other edge where eviction
	// can make progress.
	c.evictLocked()
}

// Forget drops key's completed entry, so the next Do recomputes. Use it to
// invalidate outcomes that depend on external state (a file that did not
// exist yet) rather than on the key's content. In-flight entries are left
// alone — waiters that already joined still receive the outcome — and
// explicit invalidation does not count as an eviction.
func (c *Cache[V]) Forget(key Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok && !e.inflight {
		c.unlink(e)
		delete(c.m, key)
	}
}

// Len returns the number of cached entries (including in-flight ones).
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats returns how many computations ran and how many lookups were served
// from the cache since construction or the last Reset.
func (c *Cache[V]) Stats() (runs, hits uint64) {
	return c.runs.Load(), c.hits.Load()
}

// CacheStats is a cache's lookup outcome counters: Hits counts Do calls
// served from the cache (including waits on another goroutine's in-flight
// computation), Misses counts Do calls that had to run the computation,
// Evictions counts entries dropped by the capacity bound (0 for the
// default unbounded configuration).
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions,omitempty"`
}

// Counters returns the hit/miss/eviction counters in the shape the
// observability registry (internal/obs) reports: every Do call is exactly
// one hit or one miss, so Hits+Misses is the total lookup count.
func (c *Cache[V]) Counters() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.runs.Load(), Evictions: c.evictions.Load()}
}

// Reset drops all cached entries and zeroes the counters (the capacity
// bound is kept). Entries still being computed are abandoned to their
// current waiters: goroutines already waiting on an in-flight entry get its
// result, later Do calls recompute.
func (c *Cache[V]) Reset() {
	c.mu.Lock()
	c.m = make(map[Key]*cacheEntry[V])
	c.front, c.back = nil, nil
	c.mu.Unlock()
	c.hits.Store(0)
	c.runs.Store(0)
	c.evictions.Store(0)
}
