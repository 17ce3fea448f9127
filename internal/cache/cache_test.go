package cache

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"graingraph/internal/machine"
)

func newTestHierarchy(policy machine.Policy) (*Hierarchy, *machine.Memory, *machine.Topology) {
	topo := machine.Default48()
	mem := machine.NewMemory(topo, policy)
	return New(DefaultConfig(), topo, mem), mem, topo
}

func TestColdMissThenHit(t *testing.T) {
	h, mem, _ := newTestHierarchy(machine.FirstTouch)
	r := mem.Alloc("a", 4096)
	var c Counters
	lat := h.Access(0, r.Base, false, 0, &c)
	if lat != h.cfg.MemLat { // local node via first touch, distance 10
		t.Fatalf("cold access latency = %d, want %d", lat, h.cfg.MemLat)
	}
	if c.L1Miss != 1 || c.L2Miss != 1 || c.L3Miss != 1 {
		t.Fatalf("cold access misses = %+v, want miss at every level", c)
	}
	lat = h.Access(0, r.Base, false, 0, &c)
	if lat != h.cfg.L1Lat {
		t.Fatalf("warm access latency = %d, want L1 hit %d", lat, h.cfg.L1Lat)
	}
	if c.Accesses != 2 || c.L1Miss != 1 {
		t.Fatalf("counters after hit = %+v", c)
	}
}

func TestSameLineDifferentOffsetsHit(t *testing.T) {
	h, mem, _ := newTestHierarchy(machine.FirstTouch)
	r := mem.Alloc("a", 4096)
	h.Access(0, r.Base, false, 0, nil)
	if lat := h.Access(0, r.Base+63, false, 0, nil); lat != h.cfg.L1Lat {
		t.Fatalf("same-line offset access latency = %d, want L1 hit", lat)
	}
}

func TestRemoteAccessCostsMore(t *testing.T) {
	h, mem, topo := newTestHierarchy(machine.FirstTouch)
	r := mem.Alloc("a", machine.PageSize)
	// Core 0 (socket 0) touches first: page on node 0.
	local := h.Access(0, r.Base, false, 0, nil)
	h.Flush()
	// Core 47 (socket 3) now reads the same page: remote access.
	var c Counters
	remote := h.Access(47, r.Base, false, 0, &c)
	if remote <= local {
		t.Fatalf("remote latency %d not greater than local %d", remote, local)
	}
	if c.Remote != 1 {
		t.Fatalf("remote counter = %d, want 1", c.Remote)
	}
	wantDist := uint64(topo.NodeDistance(3, 0))
	if want := h.cfg.MemLat * wantDist / 10; remote != want {
		t.Fatalf("remote latency = %d, want %d", remote, want)
	}
}

func TestCoherenceInvalidationOnWrite(t *testing.T) {
	h, mem, _ := newTestHierarchy(machine.FirstTouch)
	r := mem.Alloc("a", 4096)
	// Core 0 reads, warms its caches.
	h.Access(0, r.Base, false, 0, nil)
	if lat := h.Access(0, r.Base, false, 0, nil); lat != h.cfg.L1Lat {
		t.Fatalf("expected warm L1 hit, got %d", lat)
	}
	// Core 1 writes the line, invalidating core 0's copy.
	h.Access(1, r.Base, true, 0, nil)
	var c Counters
	lat := h.Access(0, r.Base, false, 0, &c)
	if lat == h.cfg.L1Lat {
		t.Fatalf("core 0 still hits L1 after core 1's write; coherence broken")
	}
	if c.L1Miss != 1 {
		t.Fatalf("coherence miss not counted: %+v", c)
	}
}

func TestWriterKeepsOwnLineWarm(t *testing.T) {
	h, mem, _ := newTestHierarchy(machine.FirstTouch)
	r := mem.Alloc("a", 4096)
	h.Access(0, r.Base, true, 0, nil) // establish ownership
	// Repeated writes by the same core stay cheap.
	if lat := h.Access(0, r.Base, true, 0, nil); lat != h.cfg.L1Lat {
		t.Fatalf("second write by owner cost %d, want L1 hit %d", lat, h.cfg.L1Lat)
	}
	if lat := h.Access(0, r.Base, false, 0, nil); lat != h.cfg.L1Lat {
		t.Fatalf("read after own write cost %d, want L1 hit %d", lat, h.cfg.L1Lat)
	}
}

func TestCapacityEviction(t *testing.T) {
	h, mem, _ := newTestHierarchy(machine.FirstTouch)
	cfg := h.cfg
	// Scan four times the L1 size; re-scanning must miss in L1 (capacity),
	// but hit in L2 which is large enough.
	size := 4 * int64(cfg.L1Size)
	r := mem.Alloc("big", size)
	var warm Counters
	h.AccessRange(0, r.Base, size, false, 0, nil)
	h.AccessRange(0, r.Base, size, false, 0, &warm)
	lines := uint64(size / cfg.LineSize)
	if warm.L1Miss == 0 {
		t.Fatalf("re-scan of 4x L1 had no L1 misses")
	}
	if warm.L1Miss < lines/2 {
		t.Fatalf("re-scan L1 misses = %d, want most of %d lines", warm.L1Miss, lines)
	}
	if warm.L2Miss != 0 {
		t.Fatalf("re-scan should fit in L2, got %d L2 misses", warm.L2Miss)
	}
}

func TestSharedL3WithinSocket(t *testing.T) {
	h, mem, _ := newTestHierarchy(machine.FirstTouch)
	r := mem.Alloc("a", 4096)
	h.Access(0, r.Base, false, 0, nil) // core 0 warms socket 0's L3
	var c Counters
	lat := h.Access(5, r.Base, false, 0, &c) // core 5, same socket
	if lat != h.cfg.L3Lat {
		t.Fatalf("same-socket access latency = %d, want L3 hit %d", lat, h.cfg.L3Lat)
	}
	// A core on another socket misses L3 too.
	var c2 Counters
	lat2 := h.Access(20, r.Base, false, 0, &c2)
	if lat2 <= h.cfg.L3Lat {
		t.Fatalf("cross-socket access latency = %d, want memory", lat2)
	}
}

func TestAccessRangeLineCount(t *testing.T) {
	h, mem, _ := newTestHierarchy(machine.FirstTouch)
	r := mem.Alloc("a", 1<<20)
	var c Counters
	h.AccessRange(0, r.Base, 1024, false, 0, &c)
	if c.Accesses != 1024/64 {
		t.Fatalf("sequential 1024B scan issued %d accesses, want %d", c.Accesses, 1024/64)
	}
	// Unaligned range spanning an extra line.
	var c2 Counters
	h.AccessRange(0, r.Base+32, 64, false, 0, &c2)
	if c2.Accesses != 2 {
		t.Fatalf("unaligned 64B scan issued %d accesses, want 2", c2.Accesses)
	}
	if h.AccessRange(0, r.Base, 0, false, 0, nil) != 0 {
		t.Fatal("zero-length range should cost nothing")
	}
}

func TestAccessStrided(t *testing.T) {
	h, mem, _ := newTestHierarchy(machine.FirstTouch)
	r := mem.Alloc("a", 1<<20)
	var c Counters
	h.AccessStrided(0, r.Base, 10, 4096, false, 0, &c)
	if c.Accesses != 10 {
		t.Fatalf("strided access count = %d, want 10", c.Accesses)
	}
	if c.L1Miss != 10 {
		t.Fatalf("page-strided accesses should all miss, got %d", c.L1Miss)
	}
}

func TestFlush(t *testing.T) {
	h, mem, _ := newTestHierarchy(machine.FirstTouch)
	r := mem.Alloc("a", 4096)
	h.Access(0, r.Base, false, 0, nil)
	h.Flush()
	var c Counters
	h.Access(0, r.Base, false, 0, &c)
	if c.L1Miss != 1 {
		t.Fatalf("access after flush should cold-miss, got %+v", c)
	}
}

func TestCountersAddAndRatios(t *testing.T) {
	a := Counters{Accesses: 10, L1Miss: 2, Stall: 100, Compute: 300}
	b := Counters{Accesses: 5, L1Miss: 3, Stall: 50, Compute: 100}
	a.Add(b)
	if a.Accesses != 15 || a.L1Miss != 5 || a.Stall != 150 || a.Compute != 400 {
		t.Fatalf("Add result = %+v", a)
	}
	if got := a.Utilization(); got != 400.0/150.0 {
		t.Fatalf("Utilization = %v", got)
	}
	var zero Counters
	if zero.Utilization() != 0 {
		t.Fatal("zero counters should yield zero utilization")
	}
	noStall := Counters{Compute: 7}
	if noStall.Utilization() != 7 {
		t.Fatalf("no-stall utilization = %v", noStall.Utilization())
	}
}

// Property: counter conservation — misses never exceed accesses, and deeper
// level misses never exceed shallower ones.
func TestMissOrderingProperty(t *testing.T) {
	h, mem, _ := newTestHierarchy(machine.RoundRobin)
	r := mem.Alloc("a", 1<<22)
	var c Counters
	f := func(off uint32, write bool, core uint8) bool {
		addr := r.Base + int64(off)%r.Size
		h.Access(int(core)%48, addr, write, 0, &c)
		return c.L1Miss <= c.Accesses && c.L2Miss <= c.L1Miss && c.L3Miss <= c.L2Miss
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: latency is always one of the configured levels or a NUMA
// multiple of MemLat.
func TestLatencyValuesProperty(t *testing.T) {
	topo := machine.Default48()
	mem := machine.NewMemory(topo, machine.RoundRobin)
	cfg := DefaultConfig()
	cfg.MemServiceCycles = 0 // disable queueing so latencies are exact
	h := New(cfg, topo, mem)
	r := mem.Alloc("a", 1<<22)
	valid := map[uint64]bool{h.cfg.L1Lat: true, h.cfg.L2Lat: true, h.cfg.L3Lat: true}
	for s := 0; s < topo.NumSockets(); s++ {
		for d := 0; d < topo.NumSockets(); d++ {
			dist := uint64(topo.NodeDistance(s, d))
			valid[h.cfg.MemLat*dist/10] = true             // memory
			valid[h.cfg.L3Lat+h.cfg.MemLat*dist/20] = true // cache-to-cache
		}
	}
	f := func(off uint32, write bool, core uint8) bool {
		addr := r.Base + int64(off)%r.Size
		lat := h.Access(int(core)%48, addr, write, 0, nil)
		return valid[lat]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAccessWarm(b *testing.B) {
	h, mem, _ := newTestHierarchy(machine.FirstTouch)
	r := mem.Alloc("a", 4096)
	h.Access(0, r.Base, false, 0, nil)
	var c Counters
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, r.Base, false, 0, &c)
	}
}

func BenchmarkAccessRangeScan(b *testing.B) {
	h, mem, _ := newTestHierarchy(machine.FirstTouch)
	size := int64(1 << 20)
	r := mem.Alloc("a", size)
	var c Counters
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AccessRange(0, r.Base, size, false, 0, &c)
	}
}

// TestPackingGuards: a line number that would not fit a packed way, a
// topology with more sockets than the L3 holder mask has bits, or one
// with more cores than the private-way count covers, is refused with a
// message naming the limit rather than silently aliasing.
func TestPackingGuards(t *testing.T) {
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s did not panic", name)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
				t.Fatalf("%s panicked with %q, want it to mention %q", name, msg, want)
			}
		}()
		f()
	}
	mustPanic("nine sockets", "holder mask has 8 bits", func() {
		topo := machine.New(9, 1)
		New(DefaultConfig(), topo, machine.NewMemory(topo, machine.FirstTouch))
	})
	topo := machine.New(maxSockets, 1)
	New(DefaultConfig(), topo, machine.NewMemory(topo, machine.FirstTouch)) // the widest topology that fits
	mustPanic("128 cores", "private-way count covers 127", func() {
		topo := machine.New(1, maxCores+1)
		New(DefaultConfig(), topo, machine.NewMemory(topo, machine.FirstTouch))
	})
	topo = machine.New(1, maxCores)
	New(DefaultConfig(), topo, machine.NewMemory(topo, machine.FirstTouch)) // the most cores that fit

	h, _, _ := newTestHierarchy(machine.FirstTouch)
	line := h.cfg.LineSize
	mustPanic("Access", "must stay below", func() { h.Access(0, maxLine*line, false, 0, nil) })
	mustPanic("AccessRange", "must stay below", func() { h.AccessRange(5, (maxLine+3)*line, 2*line, true, 0, nil) })
	mustPanic("AccessStrided", "must stay below", func() { h.AccessStrided(47, (maxLine+1)*line, 4, 8, false, 0, nil) })
}
