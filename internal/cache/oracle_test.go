package cache

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"graingraph/internal/machine"
)

// TestHierarchyMatchesOracle feeds the same random streams of Access,
// AccessRange and AccessStrided calls — reads and writes, from cores on
// every socket, under every page policy, with a Flush partway — into the
// Hierarchy and into the tick-LRU oracle below, and requires every call's
// latency and counters, and the final totals, to be identical.
func TestHierarchyMatchesOracle(t *testing.T) {
	// small evicts at every level within a few hundred KiB, and its L3 has
	// 192 sets, so the modulo set index runs too.
	small := DefaultConfig()
	small.L1Size, small.L1Ways = 1<<10, 2
	small.L2Size, small.L2Ways = 4<<10, 4
	small.L3Size, small.L3Ways = 48<<10, 4
	unqueued := small
	unqueued.MemServiceCycles = 0
	configs := []struct {
		name string
		cfg  Config
		span int64 // bytes of simulated memory the stream touches
		ops  int
	}{
		{"default", DefaultConfig(), 12 << 20, 600},
		{"small", small, 512 << 10, 1500},
		{"unqueued", unqueued, 512 << 10, 600},
	}
	policies := []machine.Policy{machine.FirstTouch, machine.RoundRobin, machine.Node0}
	seeds := 4
	if testing.Short() {
		seeds = 1
	}
	for _, cc := range configs {
		for _, pol := range policies {
			for seed := 0; seed < seeds; seed++ {
				t.Run(fmt.Sprintf("%s/%v/%d", cc.name, pol, seed), func(t *testing.T) {
					checkAgainstOracle(t, cc.cfg, pol, uint64(seed), cc.span, cc.ops)
				})
			}
		}
	}
}

func checkAgainstOracle(t *testing.T, cfg Config, pol machine.Policy, seed uint64, span int64, ops int) {
	topo := machine.Default48()
	memH, memO := machine.NewMemory(topo, pol), machine.NewMemory(topo, pol)
	h, o := New(cfg, topo, memH), newOracle(cfg, topo, memO)
	// Two regions: a large one streamed through, and a small hot one that
	// every socket reads and writes, so copies migrate between L3s.
	big, hot := memH.Alloc("big", span), memH.Alloc("hot", 16<<10)
	memO.Alloc("big", span)
	memO.Alloc("hot", 16<<10)

	rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
	var totH, totO Counters
	now := uint64(0)
	strides := []int64{8, 24, 64, 72, 192, 4096, -64, -8}
	for i := 0; i < ops; i++ {
		if i == ops/2 {
			h.Flush()
			o.Flush()
		}
		core := rng.IntN(topo.NumCores())
		write := rng.IntN(3) == 0
		r := big
		if rng.IntN(3) == 0 {
			r = hot
		}
		var cH, cO Counters
		var latH, latO uint64
		var call string
		switch rng.IntN(3) {
		case 0:
			addr := r.Base + rng.Int64N(r.Size)
			call = fmt.Sprintf("Access(%d, %d, %v)", core, addr, write)
			latH = h.Access(core, addr, write, now, &cH)
			latO = o.Access(core, addr, write, now, &cO)
		case 1:
			off := rng.Int64N(r.Size)
			length := rng.Int64N(min(r.Size-off, 256<<10) + 1)
			call = fmt.Sprintf("AccessRange(%d, %d, %d, %v)", core, r.Base+off, length, write)
			latH = h.AccessRange(core, r.Base+off, length, write, now, &cH)
			latO = o.AccessRange(core, r.Base+off, length, write, now, &cO)
		default:
			stride := strides[rng.IntN(len(strides))]
			count := 1 + rng.IntN(300)
			reach := int64(count-1) * stride
			if reach < 0 {
				reach = -reach
			}
			if reach >= r.Size {
				count, reach = 1, 0
			}
			off := rng.Int64N(r.Size - reach)
			if stride < 0 {
				off += reach
			}
			call = fmt.Sprintf("AccessStrided(%d, %d, %d, %d, %v)", core, r.Base+off, count, stride, write)
			latH = h.AccessStrided(core, r.Base+off, count, stride, write, now, &cH)
			latO = o.AccessStrided(core, r.Base+off, count, stride, write, now, &cO)
		}
		if latH != latO || cH != cO {
			t.Fatalf("call %d %s at %d: latency %d, counters %+v; oracle %d, %+v", i, call, now, latH, cH, latO, cO)
		}
		totH.Add(cH)
		totO.Add(cO)
		now += latH + uint64(rng.IntN(1000))
	}
	if totH != totO {
		t.Fatalf("totals %+v; oracle %+v", totH, totO)
	}
	if totH.L3Miss == 0 || totH.Remote == 0 || totH.L1Miss == totH.L3Miss {
		t.Fatalf("totals %+v: the stream must miss at every level, hit remote L3s and go to remote memory", totH)
	}
}

// The tick-LRU level and the hierarchy walk that scans every other
// socket's L3 on a local-L3 miss, as the model was before sets became
// packed, recency-ordered runs with an L3 holder mask. Apart from the
// renames (level → tickLevel, Hierarchy → oracleHierarchy, New →
// newOracle) and gofmt, the code below is unchanged.

// tickLevel is one set-associative cache. Ways of a set are stored contiguously
// in flat arrays; the set index is computed with a precomputed mask when the
// set count is a power of two (it always is under DefaultConfig), falling
// back to a modulo only for exotic geometries.
type tickLevel struct {
	sets int64
	mask int64 // sets-1 when sets is a power of two, else -1
	ways int
	tags []int64 // line address, -1 = invalid
	vers []uint32
	tick []uint64 // LRU stamps
	now  uint64
}

func newTickLevel(size int64, ways int, lineSize int64) *tickLevel {
	if size <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cache: invalid level geometry size=%d ways=%d", size, ways))
	}
	sets := size / (int64(ways) * lineSize)
	if sets < 1 {
		sets = 1
	}
	mask := int64(-1)
	if sets&(sets-1) == 0 {
		mask = sets - 1
	}
	n := sets * int64(ways)
	l := &tickLevel{sets: sets, mask: mask, ways: ways,
		tags: make([]int64, n), vers: make([]uint32, n), tick: make([]uint64, n)}
	for i := range l.tags {
		l.tags[i] = -1
	}
	return l
}

// setBase returns the flat-array offset of line's set.
func (l *tickLevel) setBase(line int64) int64 {
	if l.mask >= 0 {
		return (line & l.mask) * int64(l.ways)
	}
	return (line % l.sets) * int64(l.ways)
}

// lookup reports whether line is present with the given version, updating
// LRU on hit.
func (l *tickLevel) lookup(line int64, version uint32) bool {
	base := l.setBase(line)
	l.now++
	tags := l.tags[base : base+int64(l.ways)]
	for i := range tags {
		if tags[i] == line && l.vers[base+int64(i)] == version {
			l.tick[base+int64(i)] = l.now
			return true
		}
	}
	return false
}

// fill inserts line with version, evicting the LRU way of its set.
func (l *tickLevel) fill(line int64, version uint32) {
	base := l.setBase(line)
	l.now++
	tags := l.tags[base : base+int64(l.ways)]
	tick := l.tick[base : base+int64(l.ways)]
	victim := 0
	oldest := tick[0]
	for i := range tags {
		if tags[i] == line { // update in place (stale version refresh)
			l.vers[base+int64(i)] = version
			tick[i] = l.now
			return
		}
		if tags[i] == -1 {
			victim = i
			oldest = 0
			break
		}
		if tick[i] < oldest {
			oldest = tick[i]
			victim = i
		}
	}
	tags[victim] = line
	l.vers[base+int64(victim)] = version
	tick[victim] = l.now
}

func (l *tickLevel) reset() {
	for i := range l.tags {
		l.tags[i] = -1
		l.vers[i] = 0
		l.tick[i] = 0
	}
	l.now = 0
}

// oracleHierarchy is the full machine cache system: private L1/L2 per core and a
// shared L3 per socket, backed by NUMA memory.
type oracleHierarchy struct {
	cfg    Config
	topo   *machine.Topology
	mem    *machine.Memory
	l1, l2 []*tickLevel
	l3     []*tickLevel
	// version is the per-line write-version table, indexed by line number.
	// Simulated memory is a bump allocator from address zero, so lines are
	// dense and a flat array beats the map it replaced (which dominated CPU
	// profiles at ~1/3 of total simulation time); lines beyond the slice are
	// at version 0. Grown on write only.
	version []uint32
	// socketOf caches topo.Socket per core (probed on every access).
	socketOf []int
	// nodeDemand[n] accumulates the service cycles requested from node n's
	// memory channel; demand/time gives the channel utilization that drives
	// queueing delay. (An absolute busy-until time would be corrupted by
	// the simulator's per-worker clock skew; utilization is insensitive to
	// processing order.)
	nodeDemand []uint64
}

// newOracle builds a hierarchy for the topology, backed by mem for page placement.
func newOracle(cfg Config, topo *machine.Topology, mem *machine.Memory) *oracleHierarchy {
	h := &oracleHierarchy{cfg: cfg, topo: topo, mem: mem}
	for i := 0; i < topo.NumCores(); i++ {
		h.l1 = append(h.l1, newTickLevel(cfg.L1Size, cfg.L1Ways, cfg.LineSize))
		h.l2 = append(h.l2, newTickLevel(cfg.L2Size, cfg.L2Ways, cfg.LineSize))
		h.socketOf = append(h.socketOf, topo.Socket(i))
	}
	for s := 0; s < topo.NumSockets(); s++ {
		h.l3 = append(h.l3, newTickLevel(cfg.L3Size, cfg.L3Ways, cfg.LineSize))
	}
	h.nodeDemand = make([]uint64, topo.NumSockets())
	return h
}

// Access simulates one access by core to addr at virtual time now and
// returns the cycles it costs (including any memory-channel queueing).
// Counters (may be nil) receive the access/miss/stall accounting.
func (h *oracleHierarchy) Access(core int, addr int64, write bool, now uint64, c *Counters) uint64 {
	return h.access(core, addr, write, now, false, c)
}

// access adds the streamed flag: lines fetched in the body of a detected
// sequential scan have their latency hidden by the prefetcher — they pay
// only the bandwidth cost (queueing + channel occupancy), not the full
// memory round trip. Scans with sub-line strides stream too (see
// AccessStrided); wider strides and random accesses never do.
func (h *oracleHierarchy) access(core int, addr int64, write bool, now uint64, streamed bool, c *Counters) uint64 {
	line := addr / h.cfg.LineSize
	var ver uint32
	if line < int64(len(h.version)) {
		ver = h.version[line]
	}
	if write {
		ver++
		if line >= int64(len(h.version)) {
			h.growVersion(line)
		}
		h.version[line] = ver
	}
	lat, l1m, l2m, l3m, remote := h.accessLine(core, line, ver, write, now)
	if streamed && l1m {
		// Prefetch-covered: the latency component collapses to the channel
		// occupancy; queueing (already folded into lat beyond the base
		// latency for memory accesses) still applies via the bandwidth term.
		if capped := h.streamedCost(l3m, lat); capped < lat {
			lat = capped
		}
	}
	if c != nil {
		c.Accesses++
		if l1m {
			c.L1Miss++
			c.Stall += lat - h.cfg.L1Lat
		}
		if l2m {
			c.L2Miss++
		}
		if l3m {
			c.L3Miss++
		}
		if remote {
			c.Remote++
		}
	}
	return lat
}

func (h *oracleHierarchy) accessLine(core int, line int64, ver uint32, write bool, now uint64) (lat uint64, l1m, l2m, l3m, remote bool) {
	socket := h.socketOf[core]
	// A write looks up the line at its pre-bump version: hitting your own
	// latest copy is cheap; a line last written by another core (or never
	// cached here) misses and pays the read-for-ownership path to wherever
	// the line lives — that is the coherence/NUMA cost of writes.
	lookupVer := ver
	if write {
		lookupVer = ver - 1
	}
	lat, l1m, l2m, l3m, remote = h.probeAndFill(core, socket, line, lookupVer, now)
	if write {
		// The writer's caches now hold the new version.
		h.l1[core].fill(line, ver)
		h.l2[core].fill(line, ver)
		h.l3[socket].fill(line, ver)
	}
	return lat, l1m, l2m, l3m, remote
}

// probeAndFill walks the hierarchy for line at lookupVer, filling the levels
// between the serving level and the accessing core on the way back.
func (h *oracleHierarchy) probeAndFill(core, socket int, line int64, lookupVer uint32, now uint64) (lat uint64, l1m, l2m, l3m, remote bool) {
	if h.l1[core].lookup(line, lookupVer) {
		return h.cfg.L1Lat, false, false, false, false
	}
	l1m = true
	if h.l2[core].lookup(line, lookupVer) {
		h.l1[core].fill(line, lookupVer)
		return h.cfg.L2Lat, l1m, false, false, false
	}
	l2m = true
	if h.l3[socket].lookup(line, lookupVer) {
		h.l2[core].fill(line, lookupVer)
		h.l1[core].fill(line, lookupVer)
		return h.cfg.L3Lat, l1m, l2m, false, false
	}
	// Probe the other sockets' L3s: a hit there is a cache-to-cache
	// transfer over the interconnect — slower than local L3, cheaper than
	// memory, and it does not occupy a memory channel.
	for s2 := range h.l3 {
		if s2 == socket {
			continue
		}
		if h.l3[s2].lookup(line, lookupVer) {
			dist := uint64(h.topo.NodeDistance(socket, s2))
			lat = h.cfg.L3Lat + h.cfg.MemLat*dist/20
			h.l3[socket].fill(line, lookupVer)
			h.l2[core].fill(line, lookupVer)
			h.l1[core].fill(line, lookupVer)
			return lat, l1m, l2m, false, true
		}
	}
	l3m = true
	node := h.mem.NodeOf(line*h.cfg.LineSize, core)
	dist := uint64(h.topo.NodeDistance(socket, node))
	lat = h.cfg.MemLat * dist / 10
	if h.cfg.MemServiceCycles > 0 {
		h.nodeDemand[node] += h.cfg.MemServiceCycles
		if now > 0 {
			// M/M/1-flavoured queueing: delay grows with the channel's
			// utilization (lifetime demand over elapsed virtual time),
			// bounded by a finite queue depth of 64 transfers.
			u := float64(h.nodeDemand[node]) / float64(now)
			if u > 0.98 {
				u = 0.98
			}
			queue := uint64(float64(h.cfg.MemServiceCycles) * u / (1 - u))
			if max := 64 * h.cfg.MemServiceCycles; queue > max {
				queue = max
			}
			lat += queue
		}
	}
	remote = node != socket
	h.l3[socket].fill(line, lookupVer)
	h.l2[core].fill(line, lookupVer)
	h.l1[core].fill(line, lookupVer)
	return lat, l1m, l2m, l3m, remote
}

// AccessRange simulates a sequential scan of length bytes starting at addr
// at virtual time now and returns the total cycles. Each distinct line is
// touched once; time advances within the scan.
func (h *oracleHierarchy) AccessRange(core int, addr, length int64, write bool, now uint64, c *Counters) uint64 {
	if length <= 0 {
		return 0
	}
	first := addr / h.cfg.LineSize
	last := (addr + length - 1) / h.cfg.LineSize
	var total uint64
	for line := first; line <= last; line++ {
		// The first line of a scan pays full latency; the prefetcher covers
		// the rest.
		total += h.access(core, line*h.cfg.LineSize, write, now+total, line != first, c)
	}
	return total
}

// streamedCost is the cost of a prefetch-covered line: memory-destined
// lines pay bandwidth (occupancy + any queueing already included in lat
// beyond the base); cache-served lines pay an L2-ish pipeline bubble.
func (h *oracleHierarchy) streamedCost(wentToMemory bool, lat uint64) uint64 {
	if !wentToMemory {
		return h.cfg.L2Lat
	}
	// lat = base memory latency + queue; keep the queue, swap the base
	// round-trip for the channel occupancy.
	queue := uint64(0)
	// Base latency is at least MemLat (distance >= 10); anything above
	// 3*MemLat must be queueing at any distance in a 4-socket ring.
	if lat > 3*h.cfg.MemLat {
		queue = lat - 3*h.cfg.MemLat
	}
	return h.cfg.MemServiceCycles + queue
}

// AccessStrided simulates count accesses starting at addr with the given
// byte stride at virtual time now and returns the total cycles. A forward
// stride within one cache line is a sequential scan from the prefetcher's
// point of view — hardware stream detectors key on line-address monotonicity,
// not element width — so those accesses go through the streamed path exactly
// like AccessRange: the first access pays full latency, the rest are
// prefetch-covered. Wider (or backward) strides defeat the stream detector
// and pay full latency per access.
func (h *oracleHierarchy) AccessStrided(core int, addr int64, count int, stride int64, write bool, now uint64, c *Counters) uint64 {
	sequential := stride > 0 && stride <= h.cfg.LineSize
	var total uint64
	for i := 0; i < count; i++ {
		streamed := sequential && i != 0
		total += h.access(core, addr+int64(i)*stride, write, now+total, streamed, c)
	}
	return total
}

// Flush invalidates all cache contents and forgets line versions, leaving
// page placement intact. Use between measurement runs.
func (h *oracleHierarchy) Flush() {
	for _, l := range h.l1 {
		l.reset()
	}
	for _, l := range h.l2 {
		l.reset()
	}
	for _, l := range h.l3 {
		l.reset()
	}
	clear(h.version)
	for i := range h.nodeDemand {
		h.nodeDemand[i] = 0
	}
}

// growVersion extends the version table to cover line (power-of-two sizing
// to amortize growth over the bump allocator's monotone address space).
func (h *oracleHierarchy) growVersion(line int64) {
	n := int64(len(h.version))
	if n == 0 {
		n = 1 << 10
	}
	for n <= line {
		n *= 2
	}
	nv := make([]uint32, n)
	copy(nv, h.version)
	h.version = nv
}
