package runpool

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		r := New(workers)
		n := 100
		out, err := Map(r, n, func(i int) (int, error) {
			if i%7 == 0 {
				time.Sleep(time.Duration(i%3) * time.Millisecond)
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapSerialFallbackRunsInOrder(t *testing.T) {
	r := New(1)
	var order []int
	_, err := Map(r, 10, func(i int) (int, error) {
		order = append(order, i) // safe: serial fallback runs on one goroutine
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial execution order %v not sequential", order)
		}
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, workers := range []int{1, 8} {
		r := New(workers)
		var completed atomic.Int64
		_, err := Map(r, 50, func(i int) (int, error) {
			defer completed.Add(1)
			switch i {
			case 3:
				return 0, errLow
			case 40:
				return 0, errHigh
			}
			return i, nil
		})
		if !errors.Is(err, errLow) {
			t.Errorf("workers=%d: err = %v, want lowest-index error %v", workers, err, errLow)
		}
		if got := completed.Load(); got != 50 {
			t.Errorf("workers=%d: %d jobs completed, want all 50 despite errors", workers, got)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	r := New(3)
	var cur, peak atomic.Int64
	_, err := Map(r, 40, func(i int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Errorf("observed %d concurrent jobs, want <= 3", p)
	}
}

func TestKeyOfIsLengthPrefixed(t *testing.T) {
	if KeyOf("ab", "c") == KeyOf("a", "bc") {
		t.Error(`KeyOf("ab","c") collides with KeyOf("a","bc")`)
	}
	if KeyOf("x") != KeyOf("x") {
		t.Error("KeyOf not deterministic")
	}
	if KeyOf("x") == KeyOf("y") {
		t.Error("distinct inputs collide")
	}
	if KeyOf() == KeyOf("") {
		t.Error(`KeyOf() collides with KeyOf("")`)
	}
}

func TestKeyOfBytesMatchesContent(t *testing.T) {
	blob := []byte("grain profile artifact bytes")
	if KeyOfBytes(blob) != KeyOfBytes(append([]byte(nil), blob...)) {
		t.Error("identical bytes produce different keys")
	}
	mutated := append([]byte(nil), blob...)
	mutated[4] ^= 0x01
	if KeyOfBytes(blob) == KeyOfBytes(mutated) {
		t.Error("single-byte mutation did not change the key")
	}
	if KeyOfBytes([]byte("ab"), []byte("c")) == KeyOfBytes([]byte("a"), []byte("bc")) {
		t.Error("KeyOfBytes not length-prefixed")
	}
	// KeyOfBytes and KeyOf agree on equivalent content, so either spelling
	// addresses the same cache entry.
	if KeyOfBytes(blob) != KeyOf(string(blob)) {
		t.Error("KeyOfBytes disagrees with KeyOf on identical content")
	}
}

func TestKeyHexIsFilenameSafe(t *testing.T) {
	h := KeyOf("x").Hex()
	if len(h) != 2*len(Key{}) {
		t.Fatalf("Hex length %d, want %d", len(h), 2*len(Key{}))
	}
	for _, c := range h {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			t.Fatalf("Hex contains non-hex character %q in %q", c, h)
		}
	}
	// Two identical cache lookups through byte-content keys hit once.
	c := NewCache[int]()
	if _, _, hit := c.Do(KeyOfBytes([]byte("b")), func() (int, error) { return 1, nil }); hit {
		t.Error("first Do reported a hit")
	}
	if _, _, hit := c.Do(KeyOfBytes([]byte("b")), func() (int, error) { return 2, nil }); !hit {
		t.Error("second Do with identical bytes missed the cache")
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache[int]()
	key := KeyOf("shared")
	var computed atomic.Int64
	var wg sync.WaitGroup
	results := make([]int, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, err, _ := c.Do(key, func() (int, error) {
				computed.Add(1)
				time.Sleep(2 * time.Millisecond)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[g] = v
		}(g)
	}
	wg.Wait()
	if n := computed.Load(); n != 1 {
		t.Errorf("compute ran %d times, want exactly once", n)
	}
	for g, v := range results {
		if v != 42 {
			t.Errorf("goroutine %d got %d, want 42", g, v)
		}
	}
	runs, hits := c.Stats()
	if runs != 1 || hits != 31 {
		t.Errorf("stats = (%d runs, %d hits), want (1, 31)", runs, hits)
	}
}

func TestCacheCachesErrors(t *testing.T) {
	c := NewCache[int]()
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 3; i++ {
		_, err, _ := c.Do(KeyOf("failing"), func() (int, error) {
			calls++
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v, want %v", i, err, boom)
		}
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1 (errors are cached)", calls)
	}
}

// TestCachePanicReleasesWaiters: a compute that panics must not strand its
// key. The panic reaches the computing goroutine, a concurrent waiter gets
// an error naming it, and a later Do computes afresh.
func TestCachePanicReleasesWaiters(t *testing.T) {
	c := NewCache[int]()
	key, other := KeyOf("panics"), KeyOf("other")
	c.Do(other, func() (int, error) { return 1, nil })

	started, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Do(key, func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	c.Do(other, func() (int, error) { return 1, nil }) // other is now most recent

	waited := make(chan error, 1)
	go func() {
		_, err, _ := c.Do(key, func() (int, error) { return 0, errors.New("waiter computed") })
		waited <- err
	}()
	// The waiter has joined once its lookup made key the most recent entry.
	deadline := time.After(5 * time.Second)
	for joined := false; !joined; {
		c.mu.Lock()
		joined = c.front != nil && c.front.key == key
		c.mu.Unlock()
		select {
		case <-deadline:
			t.Fatal("waiter never joined the in-flight computation")
		case <-time.After(time.Millisecond):
		}
	}
	close(release)

	select {
	case r := <-panicked:
		if r != "boom" {
			t.Errorf("computing goroutine recovered %v, want the panic value boom", r)
		}
	case <-deadline:
		t.Fatal("the panic did not reach the computing goroutine")
	}
	select {
	case err := <-waited:
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Errorf("waiter err = %v, want one naming the panic", err)
		}
	case <-deadline:
		t.Fatal("waiter hangs on the panicked computation")
	}
	v, err, hit := c.Do(key, func() (int, error) { return 7, nil })
	if v != 7 || err != nil || hit {
		t.Errorf("later Do = (%d, %v, hit=%v), want a fresh (7, nil, false): the failed entry must not be memoized", v, err, hit)
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache[string]()
	k := KeyOf("k")
	c.Do(k, func() (string, error) { return "first", nil })
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", c.Len())
	}
	v, _, hit := c.Do(k, func() (string, error) { return "second", nil })
	if hit || v != "second" {
		t.Errorf("after Reset got (%q, hit=%v), want recomputed (%q, false)", v, hit, "second")
	}
}

func TestCacheManyKeysConcurrent(t *testing.T) {
	c := NewCache[int]()
	r := New(16)
	n := 200
	out, err := Map(r, n, func(i int) (int, error) {
		v, err, _ := c.Do(KeyOf(fmt.Sprintf("k%d", i%20)), func() (int, error) {
			return i % 20, nil
		})
		return v, err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i%20 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i%20)
		}
	}
	if c.Len() != 20 {
		t.Errorf("cache has %d keys, want 20", c.Len())
	}
}
