package cache

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"graingraph/internal/machine"
)

// streamBytes is the region a seeded stream runs over: 32k lines, so the
// line table grows well past its initial 1k lines.
const streamBytes = 2 << 20

// seededStream drives h through ops accesses over a fresh region of its
// memory from every core, a third of them writes, and returns every
// access's latency and the accumulated counters.
func seededStream(h *Hierarchy, seed uint64, ops int) ([]uint64, Counters) {
	r := h.mem.Alloc("stream", streamBytes)
	cores := len(h.l1)
	rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
	lats := make([]uint64, 0, ops)
	var c Counters
	now := uint64(0)
	for i := 0; i < ops; i++ {
		core := rng.IntN(cores)
		addr := r.Base + rng.Int64N(streamBytes)
		write := rng.IntN(3) == 0
		var lat uint64
		if rng.IntN(4) == 0 {
			n := min(int64(rng.IntN(1024)+1), r.Base+streamBytes-addr)
			lat = h.AccessRange(core, addr, n, write, now, &c)
		} else {
			lat = h.Access(core, addr, write, now, &c)
		}
		lats = append(lats, lat)
		now += lat
	}
	return lats, c
}

// drainIdle empties the free list of g, so the next New of g is fresh.
func drainIdle(g geometry) {
	for takeIdle(g) != nil {
	}
}

// TestRecycledHierarchyMatchesFresh: a hierarchy dirtied by a stream that
// writes across sockets and grows its line table, then released, must
// come back from New indistinguishable from a freshly built one: the same
// latency for every access and the same counters on a second stream.
func TestRecycledHierarchyMatchesFresh(t *testing.T) {
	cfg := DefaultConfig()
	for _, topo := range []*machine.Topology{machine.Default48(), machine.New(1, 1)} {
		cores := topo.NumCores()
		drainIdle(geometry{cfg: cfg, cores: cores, sockets: topo.NumSockets()})

		dirty := New(cfg, topo, machine.NewMemory(topo, machine.FirstTouch))
		seededStream(dirty, 1, 20000)
		grown := cap(dirty.lines)
		dirty.Release()

		recycled := New(cfg, topo, machine.NewMemory(topo, machine.FirstTouch))
		if recycled != dirty {
			t.Fatalf("%d cores: New after Release built a new hierarchy instead of reusing the released one", cores)
		}
		if cap(recycled.lines) != grown {
			t.Fatalf("%d cores: recycled line table has capacity %d, want the grown %d",
				cores, cap(recycled.lines), grown)
		}
		if slices.ContainsFunc(recycled.lines[:grown], func(st lineState) bool { return st != lineState{} }) {
			t.Fatalf("%d cores: recycled line table is not zeroed over its full capacity", cores)
		}
		fresh := New(cfg, topo, machine.NewMemory(topo, machine.FirstTouch))
		if fresh == dirty {
			t.Fatalf("%d cores: the free list handed out one hierarchy twice", cores)
		}

		latR, cR := seededStream(recycled, 2, 20000)
		latF, cF := seededStream(fresh, 2, 20000)
		for j := range latR {
			if latR[j] != latF[j] {
				t.Fatalf("%d cores: access %d costs %d on the recycled hierarchy, %d on a fresh one", cores, j, latR[j], latF[j])
			}
		}
		if cR != cF {
			t.Fatalf("%d cores: recycled counters %+v, fresh %+v", cores, cR, cF)
		}
		recycled.Release()
		fresh.Release()
	}
}

// TestNewAfterReleaseAllocatesNothing: reusing a released hierarchy of the
// same geometry allocates at most the Hierarchy header.
func TestNewAfterReleaseAllocatesNothing(t *testing.T) {
	cfg, topo := DefaultConfig(), machine.Default48()
	mem := machine.NewMemory(topo, machine.FirstTouch)
	New(cfg, topo, mem).Release()
	allocs := testing.AllocsPerRun(20, func() { New(cfg, topo, mem).Release() })
	if allocs > 1 {
		t.Errorf("New after Release allocates %.0f times, want at most the header", allocs)
	}
}

// TestConcurrentNewRelease: goroutines building, using and releasing
// hierarchies of shared geometries at once each see exactly what a fresh
// hierarchy gives. Run it under -race: the free list is shared.
func TestConcurrentNewRelease(t *testing.T) {
	cfg := DefaultConfig()
	topos := []*machine.Topology{machine.New(2, 2), machine.New(1, 1)}
	const seeds, ops = 4, 3000
	want := make([][]Counters, len(topos))
	for ti, topo := range topos {
		for s := uint64(0); s < seeds; s++ {
			drainIdle(geometry{cfg: cfg, cores: topo.NumCores(), sockets: topo.NumSockets()})
			_, c := seededStream(New(cfg, topo, machine.NewMemory(topo, machine.FirstTouch)), s, ops)
			want[ti] = append(want[ti], c)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				ti, s := (g+i)%len(topos), uint64((g*3+i)%seeds)
				topo := topos[ti]
				h := New(cfg, topo, machine.NewMemory(topo, machine.FirstTouch))
				if _, c := seededStream(h, s, ops); c != want[ti][s] {
					errs <- "goroutine saw different counters than a fresh hierarchy"
				}
				h.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
