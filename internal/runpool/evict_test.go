package runpool

import (
	"fmt"
	"sync"
	"testing"
)

// kn makes a distinct key for test index i.
func kn(i int) Key { return KeyOf(fmt.Sprintf("key-%d", i)) }

// doInt runs a trivial computation for key i, returning i.
func doInt(c *Cache[int], i int) (int, bool) {
	v, err, hit := c.Do(kn(i), func() (int, error) { return i, nil })
	if err != nil {
		panic(err)
	}
	return v, hit
}

func TestCacheUnboundedByDefault(t *testing.T) {
	c := NewCache[int]()
	for i := 0; i < 1000; i++ {
		doInt(c, i)
	}
	if got := c.Len(); got != 1000 {
		t.Fatalf("unbounded cache evicted: Len = %d, want 1000", got)
	}
	if ev := c.Counters().Evictions; ev != 0 {
		t.Fatalf("unbounded cache reported %d evictions", ev)
	}
}

func TestCacheEvictionCounters(t *testing.T) {
	c := NewCache[int]()
	c.SetCapacity(2)

	doInt(c, 1) // miss
	doInt(c, 2) // miss
	doInt(c, 1) // hit
	doInt(c, 3) // miss; evicts 2 (LRU — 1 was touched)
	doInt(c, 1) // hit: 1 must have survived
	doInt(c, 2) // miss: 2 was evicted, recomputes

	st := c.Counters()
	if st.Hits != 2 || st.Misses != 4 || st.Evictions != 2 {
		t.Fatalf("counters = %+v, want hits=2 misses=4 evictions=2", st)
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	runs, hits := c.Stats()
	if runs != st.Misses || hits != st.Hits {
		t.Fatalf("Stats() = (%d, %d), disagrees with Counters %+v", runs, hits, st)
	}
}

func TestCacheLRUOrder(t *testing.T) {
	c := NewCache[int]()
	c.SetCapacity(3)
	doInt(c, 1)
	doInt(c, 2)
	doInt(c, 3)
	doInt(c, 1) // refresh 1; LRU order is now 2, 3, 1
	doInt(c, 4) // evicts 2

	if _, hit := doInt(c, 1); !hit {
		t.Error("1 was refreshed but got evicted")
	}
	if _, hit := doInt(c, 3); !hit {
		t.Error("3 was newer than 2 but got evicted")
	}
	// 2 was the least recently used entry; it must be the one that went.
	if _, hit := doInt(c, 2); hit {
		t.Error("2 was LRU but survived eviction")
	}
}

func TestCacheSetCapacityEvictsImmediately(t *testing.T) {
	c := NewCache[int]()
	for i := 0; i < 10; i++ {
		doInt(c, i)
	}
	c.SetCapacity(4)
	if got := c.Len(); got != 4 {
		t.Fatalf("Len after SetCapacity(4) = %d, want 4", got)
	}
	if ev := c.Counters().Evictions; ev != 6 {
		t.Fatalf("Evictions after SetCapacity(4) = %d, want 6", ev)
	}
	// The survivors are the four most recently used.
	for i := 6; i < 10; i++ {
		if _, hit := doInt(c, i); !hit {
			t.Errorf("recently used key %d was evicted", i)
		}
	}
}

func TestCacheNeverEvictsInFlight(t *testing.T) {
	c := NewCache[int]()
	c.SetCapacity(1)

	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(kn(100), func() (int, error) {
			close(started)
			<-release
			return 100, nil
		})
	}()
	<-started

	// The in-flight entry is the LRU tail; these inserts exceed capacity
	// but must evict each other, never the in-flight entry.
	doInt(c, 1)
	doInt(c, 2)
	close(release)
	<-done

	// A waiter arriving now must hit the finished in-flight entry: it was
	// never evicted.
	v, err, hit := c.Do(kn(100), func() (int, error) {
		t.Error("in-flight entry was evicted: compute ran again")
		return -1, nil
	})
	if err != nil || !hit || v != 100 {
		t.Fatalf("Do(in-flight key) = (%d, %v, hit=%v), want (100, nil, true)", v, err, hit)
	}
	// Completion trims back to capacity.
	if got := c.Len(); got != 1 {
		t.Fatalf("Len after completion = %d, want 1", got)
	}
}

func TestCacheEvictionConcurrent(t *testing.T) {
	c := NewCache[string]()
	c.SetCapacity(8)
	const (
		goroutines = 8
		iters      = 500
		keySpace   = 32
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g*13 + i*7) % keySpace
				want := fmt.Sprintf("v%d", k)
				v, err, _ := c.Do(kn(k), func() (string, error) { return want, nil })
				if err != nil || v != want {
					t.Errorf("Do(%d) = (%q, %v), want (%q, nil)", k, v, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if got := c.Len(); got > 8 {
		t.Errorf("Len = %d exceeds capacity 8 with no in-flight entries", got)
	}
	st := c.Counters()
	if st.Hits+st.Misses != goroutines*iters {
		t.Errorf("hits+misses = %d, want exactly %d lookups", st.Hits+st.Misses, goroutines*iters)
	}
	if st.Misses < 8 {
		t.Errorf("misses = %d, impossible for %d distinct keys", st.Misses, keySpace)
	}
}
