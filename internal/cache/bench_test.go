package cache

import (
	"math/rand/v2"
	"testing"

	"graingraph/internal/machine"
)

// benchHierarchy builds a default hierarchy over the 48-core machine.
func benchHierarchy() *Hierarchy {
	topo := machine.Default48()
	mem := machine.NewMemory(topo, machine.FirstTouch)
	return New(DefaultConfig(), topo, mem)
}

// BenchmarkAccessSequential measures the streamed read path: one core
// scanning a multi-megabyte region line by line, the dominant pattern in
// Sort/FFT array phases.
func BenchmarkAccessSequential(b *testing.B) {
	h := benchHierarchy()
	var c Counters
	const span = 8 << 20
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := int64(i*64) % span
		h.Access(0, addr, false, uint64(i), &c)
	}
}

// BenchmarkAccessRandom measures the unstreamed path with set-index and
// version-table lookups on effectively random lines.
func BenchmarkAccessRandom(b *testing.B) {
	h := benchHierarchy()
	var c Counters
	rng := rand.New(rand.NewPCG(1, 2))
	const span = 8 << 20
	addrs := make([]int64, 4096)
	for i := range addrs {
		addrs[i] = rng.Int64N(span)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(i%48, addrs[i%len(addrs)], false, uint64(i), &c)
	}
}

// BenchmarkAccessWriteInvalidate measures the coherence write path: cores
// on different sockets ping-ponging writes to a small shared region, which
// exercises the per-line version table on every access.
func BenchmarkAccessWriteInvalidate(b *testing.B) {
	h := benchHierarchy()
	var c Counters
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core := (i % 4) * 12 // one core per socket
		addr := int64(i%64) * 64
		h.Access(core, addr, true, uint64(i), &c)
	}
}

// BenchmarkVersionLookup isolates the line table, the structure the
// coherence check consults on every single access.
func BenchmarkVersionLookup(b *testing.B) {
	h := benchHierarchy()
	// Touch a realistic footprint so the table is grown and populated.
	for i := int64(0); i < 1<<16; i++ {
		h.Access(int(i)%48, i*64, true, uint64(i), nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := int64(i) & (1<<16 - 1)
		if line < int64(len(h.lines)) {
			_ = h.lines[line].version
		}
	}
}

// BenchmarkAccessRangeStream is Sort's pattern at full width: the 48 cores
// in turn stream 16 MiB scans over a shared 64 MiB array, alternately
// reading and writing, so every level misses, L3s evict and lines migrate
// between sockets. One op is one 16 MiB scan.
func BenchmarkAccessRangeStream(b *testing.B) {
	h := benchHierarchy()
	const cores, scan, slices = 48, 16 << 20, 4
	base := h.mem.Alloc("array", slices*scan).Base
	var c Counters
	now := uint64(0)
	b.ReportAllocs()
	b.SetBytes(scan)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core := i % cores
		off := base + int64((i*7)%slices)*scan
		now += h.AccessRange(core, off, scan, i%2 == 1, now, &c)
	}
}
