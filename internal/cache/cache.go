// Package cache simulates a three-level cache hierarchy with write-invalidate
// coherence and NUMA-aware memory latency. It substitutes for the PAPI
// hardware counters the paper reads: per-grain access, miss and stall-cycle
// counts are accumulated into Counters, from which the memory-hierarchy
// utilization metric and work inflation are derived.
//
// The model is deliberately simple but directionally faithful:
//
//   - L1 and L2 are private per core; L3 is shared per socket. All levels are
//     set-associative with LRU replacement. A set is a recency-ordered run of
//     packed line<<32 | version words, so LRU needs no timestamps.
//   - Coherence uses a per-line version number: every write bumps the line's
//     version, so copies cached by other cores become stale and their next
//     access misses all the way to memory (a coherence miss).
//   - A per-line table records which sockets' L3s hold the line's current
//     version, so a local-L3 miss finds a remote copy without probing every
//     other socket, and which L3s and how many private (L1 and L2) ways
//     hold it at any version, so a miss the table rules out skips the scan
//     of its set.
//   - A memory access pays a latency scaled by the NUMA distance between the
//     accessing core's socket and the node owning the page, so page placement
//     policies (first-touch vs round-robin) change observed stall cycles.
package cache

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"graingraph/internal/machine"
)

// Config sets the geometry and latencies of the simulated hierarchy.
// Sizes are in bytes; latencies in cycles.
type Config struct {
	LineSize int64

	L1Size int64
	L1Ways int
	L2Size int64
	L2Ways int
	L3Size int64 // per socket, shared by its cores
	L3Ways int

	L1Lat, L2Lat, L3Lat uint64
	// MemLat is the memory latency at local NUMA distance (10); an access to
	// a node at distance d costs MemLat*d/10 cycles.
	MemLat uint64
	// MemServiceCycles is each NUMA node's memory-channel occupancy per
	// cache-line transfer. Misses destined for the same node queue behind
	// each other, so concentrating pages on one node (first-touch by a
	// serial initializer) throttles the whole machine — the contention the
	// paper's round-robin page distribution relieves. 0 disables the model.
	MemServiceCycles uint64
}

// DefaultConfig models a machine in the spirit of the paper's Opteron 6172,
// with capacities scaled down consistently with the laptop-scale inputs the
// reproduction runs (the paper's experiments used inputs several times the
// aggregate L3; so do ours): 32 KiB 8-way L1, 256 KiB 8-way L2, 2 MiB
// 16-way shared L3 per socket.
func DefaultConfig() Config {
	return Config{
		LineSize: 64,
		L1Size:   32 << 10, L1Ways: 8,
		L2Size: 256 << 10, L2Ways: 8,
		L3Size: 2 << 20, L3Ways: 16,
		L1Lat: 1, L2Lat: 10, L3Lat: 40,
		MemLat:           120,
		MemServiceCycles: 40,
	}
}

// Counters accumulates per-grain memory behaviour. The simulated runtime
// points the hierarchy at the counters of whichever grain is executing.
type Counters struct {
	Accesses uint64 // cache-line accesses issued
	L1Miss   uint64
	L2Miss   uint64
	L3Miss   uint64
	Remote   uint64 // memory accesses served by a remote NUMA node
	Stall    uint64 // cycles stalled beyond an L1 hit
	Compute  uint64 // pure compute cycles (charged by the runtime, not here)
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Accesses += other.Accesses
	c.L1Miss += other.L1Miss
	c.L2Miss += other.L2Miss
	c.L3Miss += other.L3Miss
	c.Remote += other.Remote
	c.Stall += other.Stall
	c.Compute += other.Compute
}

// Utilization returns the memory-hierarchy utilization metric: compute
// cycles divided by stall cycles. A grain that never stalls has perfect
// utilization, reported as +Inf-like large value via ok=false semantics:
// callers should treat Stall==0 as unproblematic.
func (c *Counters) Utilization() float64 {
	if c.Stall == 0 {
		if c.Compute == 0 {
			return 0
		}
		return float64(c.Compute) // effectively unbounded
	}
	return float64(c.Compute) / float64(c.Stall)
}

// level is one set-associative LRU cache. A set is a run of ways words, each
// a packed line<<32 | version, kept in recency order: the most recently
// touched way first, invalid ways trailing. A hit moves its way to the
// front; a fill into a full set drops the last way, which is the least
// recently touched one, so no per-way timestamps are needed. The set index
// is computed with a precomputed mask when the set count is a power of two
// (it always is under DefaultConfig), falling back to a modulo only for
// exotic geometries.
type level struct {
	sets int64
	mask int64 // sets-1 when sets is a power of two, else -1
	ways int
	ent  []uint64
}

// invalid marks an empty way. No packed line equals it, because line
// numbers stay below maxLine.
const invalid = ^uint64(0)

// maxLine bounds line numbers: a line must fit the upper 32 bits of a packed
// way and stay clear of the invalid sentinel.
const maxLine = 1<<32 - 1

// maxSockets is the number of sockets the L3 holder bitmask can name.
const maxSockets = 8

func pack(line int64, ver uint32) uint64 { return uint64(line)<<32 | uint64(ver) }

func newLevel(size int64, ways int, lineSize int64) *level {
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
	l := &level{sets: sets, mask: mask, ways: ways, ent: make([]uint64, sets*int64(ways))}
	l.reset()
	return l
}

// set returns the ways of line's set.
func (l *level) set(line int64) []uint64 {
	s := line & l.mask
	if l.mask < 0 {
		s = line % l.sets
	}
	base := s * int64(l.ways)
	return l.ent[base : base+int64(l.ways)]
}

// probe looks line up at version ver. A hit moves the way to the front. A
// miss changes nothing and returns the position a fill of line takes: the
// line's own (stale) way if the set holds one, else the first invalid way,
// else the last, least recently used, way.
func (l *level) probe(line int64, ver uint32) (hit bool, pos int) {
	set := l.set(line)
	key := pack(line, ver)
	for i, e := range set {
		if e == key {
			for ; i > 0; i-- {
				set[i] = set[i-1]
			}
			set[0] = key
			return true, 0
		}
		if e>>32 == uint64(line) || e == invalid {
			return false, i
		}
	}
	return false, len(set) - 1
}

// vacancy returns the position a fill of line takes when its set holds no
// way of line at any version: the first invalid way, else the last, least
// recently used, way. Invalid ways trail, so a full set is settled by its
// last way alone. probe returns the same position for such a set, after a
// scan of every way.
func (l *level) vacancy(line int64) int {
	set := l.set(line)
	if last := len(set) - 1; set[last] != invalid {
		return last
	}
	return slices.Index(set, invalid)
}

// fillAt puts line at version ver at the front of its set, dropping the way
// at pos (as probe returned it), and returns the dropped word.
func (l *level) fillAt(line int64, ver uint32, pos int) (dropped uint64) {
	set := l.set(line)
	dropped = set[pos]
	copy(set[1:pos+1], set[:pos])
	set[0] = pack(line, ver)
	return dropped
}

func (l *level) reset() {
	for i := range l.ent {
		l.ent[i] = invalid
	}
}

// Hierarchy is the full machine cache system: private L1/L2 per core and a
// shared L3 per socket, backed by NUMA memory.
type Hierarchy struct {
	cfg    Config
	topo   *machine.Topology
	mem    *machine.Memory
	l1, l2 []*level
	l3     []*level
	// lines is the per-line table, indexed by line number. Simulated memory
	// is a bump allocator from address zero, so lines are dense and a flat
	// array beats the map it replaced (which dominated CPU profiles at ~1/3
	// of total simulation time). Its length covers every line accessed
	// since the last Flush, and its capacity the most any run has touched;
	// the entries past its length are zero.
	lines []lineState
	// socketOf caches topo.Socket per core.
	socketOf []int
	// nodeDemand[n] accumulates the service cycles requested from node n's
	// memory channel; demand/time gives the channel utilization that drives
	// queueing delay. (An absolute busy-until time would be corrupted by
	// the simulator's per-worker clock skew; utilization is insensitive to
	// processing order.)
	nodeDemand []uint64
}

// lineState is what the hierarchy knows of one line: 8 bytes.
type lineState struct {
	// version is the line's write version; a line starts at 0.
	version uint32
	// holders has bit s set exactly when socket s's L3 holds the line at
	// version: the directory a local-L3 miss consults instead of probing
	// every other socket's L3.
	holders uint8
	// l3any has bit s set exactly when socket s's L3 holds the line at any
	// version. A clear bit rules out every way of the line in that L3.
	l3any uint8
	// priv counts the L1 and L2 ways, over all cores, that hold the line
	// at any version (a set holds each line at most once, so at most two
	// per core). Zero rules out every way of the line in every L1 and L2.
	priv uint8
}

// maxCores is the number of cores whose private ways lineState.priv can
// count: two per core must fit a byte.
const maxCores = 127

// geometry is what decides a hierarchy's shape: two hierarchies of one
// geometry differ only in their contents.
type geometry struct {
	cfg            Config
	cores, sockets int
}

// idle holds released hierarchies for New to reuse, at most one per
// geometry per GOMAXPROCS worker: concurrent simulations each release one.
var idle = struct {
	sync.Mutex
	byGeometry map[geometry][]*Hierarchy
}{byGeometry: make(map[geometry][]*Hierarchy)}

// New builds a hierarchy for the topology, backed by mem for page placement.
// A hierarchy of the same geometry given back with Release is reused,
// reset to the state a fresh one starts in.
func New(cfg Config, topo *machine.Topology, mem *machine.Memory) *Hierarchy {
	if n := topo.NumSockets(); n > maxSockets {
		panic(fmt.Sprintf("cache: %d sockets, but the L3 holder mask has %d bits", n, maxSockets))
	}
	if n := topo.NumCores(); n > maxCores {
		panic(fmt.Sprintf("cache: %d cores, but the private-way count covers %d", n, maxCores))
	}
	g := geometry{cfg: cfg, cores: topo.NumCores(), sockets: topo.NumSockets()}
	if h := takeIdle(g); h != nil {
		h.topo, h.mem = topo, mem
		for i := range h.socketOf {
			h.socketOf[i] = topo.Socket(i)
		}
		h.Flush()
		return h
	}
	h := &Hierarchy{cfg: cfg, topo: topo, mem: mem}
	for i := 0; i < topo.NumCores(); i++ {
		h.l1 = append(h.l1, newLevel(cfg.L1Size, cfg.L1Ways, cfg.LineSize))
		h.l2 = append(h.l2, newLevel(cfg.L2Size, cfg.L2Ways, cfg.LineSize))
		h.socketOf = append(h.socketOf, topo.Socket(i))
	}
	for s := 0; s < topo.NumSockets(); s++ {
		h.l3 = append(h.l3, newLevel(cfg.L3Size, cfg.L3Ways, cfg.LineSize))
	}
	h.nodeDemand = make([]uint64, topo.NumSockets())
	return h
}

// takeIdle removes and returns a released hierarchy of geometry g, or nil.
func takeIdle(g geometry) *Hierarchy {
	idle.Lock()
	defer idle.Unlock()
	hs := idle.byGeometry[g]
	if len(hs) == 0 {
		return nil
	}
	h := hs[len(hs)-1]
	hs[len(hs)-1] = nil
	idle.byGeometry[g] = hs[:len(hs)-1]
	return h
}

// Release gives h back for a later New of the same geometry to reuse; h
// must not be used afterwards. It is dropped when enough hierarchies of its
// geometry are idle already.
func (h *Hierarchy) Release() {
	g := geometry{cfg: h.cfg, cores: len(h.l1), sockets: len(h.l3)}
	h.topo, h.mem = nil, nil // keep no run's memory alive
	idle.Lock()
	defer idle.Unlock()
	if hs := idle.byGeometry[g]; len(hs) < runtime.GOMAXPROCS(0) {
		idle.byGeometry[g] = append(hs, h)
	}
}

// path is one core's view of the hierarchy, resolved once per call.
type path struct {
	core, socket int
	l1, l2, l3   *level
}

func (h *Hierarchy) pathOf(core int) path {
	s := h.socketOf[core]
	return path{core: core, socket: s, l1: h.l1[core], l2: h.l2[core], l3: h.l3[s]}
}

// Access simulates one access by core to addr at virtual time now and
// returns the cycles it costs (including any memory-channel queueing).
// Counters (may be nil) receive the access/miss/stall accounting.
func (h *Hierarchy) Access(core int, addr int64, write bool, now uint64, c *Counters) uint64 {
	p := h.pathOf(core)
	return h.access(&p, addr/h.cfg.LineSize, write, now, false, c)
}

// access adds the streamed flag: lines fetched in the body of a detected
// sequential scan have their latency hidden by the prefetcher — they pay
// only the bandwidth cost (queueing + channel occupancy), not the full
// memory round trip. Scans with sub-line strides stream too (see
// AccessStrided); wider strides and random accesses never do.
func (h *Hierarchy) access(p *path, line int64, write bool, now uint64, streamed bool, c *Counters) uint64 {
	if line >= int64(len(h.lines)) {
		h.growLines(line)
	}
	// A write looks up the line at its pre-bump version: hitting your own
	// latest copy is cheap; a line last written by another core (or never
	// cached here) misses and pays the read-for-ownership path to wherever
	// the line lives — that is the coherence/NUMA cost of writes.
	st := &h.lines[line]
	lat, l1m, l2m, l3m, remote := h.probeAndFill(p, line, st, now)
	if write {
		// The writer's caches now hold the new version; every other copy
		// is stale. probeAndFill left the line at way 0 of the L1, of the
		// L2 when the L1 missed and of the L3 when the L2 missed, so the
		// new version replaces it there in place. A level that was not
		// filled holds no way of the new version, so its probe misses and
		// yields the way the fill takes.
		st.version++
		ver := st.version
		key := pack(line, ver)
		p.l1.set(line)[0] = key
		if l1m {
			p.l2.set(line)[0] = key
		} else {
			_, pos := p.l2.probe(line, ver)
			h.fillPrivate(p.l2, line, ver, pos)
		}
		if l2m {
			p.l3.set(line)[0] = key
		} else {
			h.fillL3(p.socket, line, ver, h.l3Miss(p, line, st))
		}
		st.holders = 1 << p.socket
	}
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

// probeAndFill walks the hierarchy for line at its version st.version,
// filling the levels between the serving level and the accessing core on
// the way back. Each level's set is scanned at most once: a miss's probe
// yields the position its fill takes. A level the line table rules out —
// no private way anywhere holds the line, or the local L3 holds no way of
// it — is not scanned at all: it misses, and its fill takes the vacancy.
func (h *Hierarchy) probeAndFill(p *path, line int64, st *lineState, now uint64) (lat uint64, l1m, l2m, l3m, remote bool) {
	ver := st.version
	var pos1, pos2 int
	if st.priv == 0 {
		pos1, pos2 = p.l1.vacancy(line), p.l2.vacancy(line)
	} else {
		var hit bool
		if hit, pos1 = p.l1.probe(line, ver); hit {
			return h.cfg.L1Lat, false, false, false, false
		}
		if hit, pos2 = p.l2.probe(line, ver); hit {
			h.fillPrivate(p.l1, line, ver, pos1)
			return h.cfg.L2Lat, true, false, false, false
		}
	}
	l1m, l2m = true, true
	var pos3 int
	if st.l3any&(1<<p.socket) == 0 {
		pos3 = p.l3.vacancy(line)
	} else {
		var hit bool
		if hit, pos3 = p.l3.probe(line, ver); hit {
			h.fillPrivate(p.l2, line, ver, pos2)
			h.fillPrivate(p.l1, line, ver, pos1)
			return h.cfg.L3Lat, l1m, l2m, false, false
		}
	}
	// Another socket's L3 holding the line serves it by a cache-to-cache
	// transfer over the interconnect — slower than local L3, cheaper than
	// memory, and it does not occupy a memory channel. The lowest-numbered
	// holder serves; the local socket is not among them, since its probe
	// missed.
	if m := st.holders; m != 0 {
		s2 := bits.TrailingZeros8(m)
		if hit, _ := h.l3[s2].probe(line, ver); !hit {
			panic(fmt.Sprintf("cache: holder mask names socket %d for line %d, but its L3 misses", s2, line))
		}
		dist := uint64(h.topo.NodeDistance(p.socket, s2))
		lat = h.cfg.L3Lat + h.cfg.MemLat*dist/20
		h.fillL3(p.socket, line, ver, pos3)
		h.fillPrivate(p.l2, line, ver, pos2)
		h.fillPrivate(p.l1, line, ver, pos1)
		return lat, l1m, l2m, false, true
	}
	l3m = true
	node := h.mem.NodeOf(line*h.cfg.LineSize, p.core)
	dist := uint64(h.topo.NodeDistance(p.socket, node))
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
	remote = node != p.socket
	h.fillL3(p.socket, line, ver, pos3)
	h.fillPrivate(p.l2, line, ver, pos2)
	h.fillPrivate(p.l1, line, ver, pos1)
	return lat, l1m, l2m, l3m, remote
}

// l3Miss returns the position a fill of line at a version no cache holds
// takes in the local L3: the vacancy when the L3 holds no way of line,
// else where a probe, which misses, puts it.
func (h *Hierarchy) l3Miss(p *path, line int64, st *lineState) int {
	if st.l3any&(1<<p.socket) == 0 {
		return p.l3.vacancy(line)
	}
	_, pos := p.l3.probe(line, st.version)
	return pos
}

// fillPrivate fills the L1 or L2 l with line at version ver, at pos, and
// keeps the private-way counts in step: a fill over the line's own stale
// way changes none, and otherwise the dropped line loses a way and line
// gains one.
func (h *Hierarchy) fillPrivate(l *level, line int64, ver uint32, pos int) {
	e := l.fillAt(line, ver, pos)
	if int64(e>>32) == line {
		return
	}
	if e != invalid {
		h.lines[e>>32].priv--
	}
	h.lines[line].priv++
}

// fillL3 fills socket s's L3 with line at its current version ver, at pos,
// and keeps the holder and any-version masks in step: a set holds each
// line at most once, so the line it drops leaves s's masks, and line joins
// them.
func (h *Hierarchy) fillL3(s int, line int64, ver uint32, pos int) {
	bit := uint8(1) << s
	if e := h.l3[s].fillAt(line, ver, pos); e != invalid && int64(e>>32) != line {
		d := &h.lines[e>>32]
		d.holders &^= bit
		d.l3any &^= bit
	}
	st := &h.lines[line]
	st.holders |= bit
	st.l3any |= bit
}

// AccessRange simulates a sequential scan of length bytes starting at addr
// at virtual time now and returns the total cycles. Each distinct line is
// touched once; time advances within the scan.
func (h *Hierarchy) AccessRange(core int, addr, length int64, write bool, now uint64, c *Counters) uint64 {
	if length <= 0 {
		return 0
	}
	p := h.pathOf(core)
	first := addr / h.cfg.LineSize
	last := (addr + length - 1) / h.cfg.LineSize
	var total uint64
	for line := first; line <= last; line++ {
		// The first line of a scan pays full latency; the prefetcher covers
		// the rest.
		total += h.access(&p, line, write, now+total, line != first, c)
	}
	return total
}

// streamedCost is the cost of a prefetch-covered line: memory-destined
// lines pay bandwidth (occupancy + any queueing already included in lat
// beyond the base); cache-served lines pay an L2-ish pipeline bubble.
func (h *Hierarchy) streamedCost(wentToMemory bool, lat uint64) uint64 {
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
func (h *Hierarchy) AccessStrided(core int, addr int64, count int, stride int64, write bool, now uint64, c *Counters) uint64 {
	p := h.pathOf(core)
	sequential := stride > 0 && stride <= h.cfg.LineSize
	var total uint64
	for i := 0; i < count; i++ {
		streamed := sequential && i != 0
		total += h.access(&p, (addr+int64(i)*stride)/h.cfg.LineSize, write, now+total, streamed, c)
	}
	return total
}

// Flush invalidates all cache contents, forgets line versions (every line
// accessed since the last Flush; the table keeps its grown capacity) and
// zeroes the memory-channel demand, leaving page placement intact. Use
// between measurement runs.
func (h *Hierarchy) Flush() {
	for _, l := range h.l1 {
		l.reset()
	}
	for _, l := range h.l2 {
		l.reset()
	}
	for _, l := range h.l3 {
		l.reset()
	}
	clear(h.lines)
	h.lines = h.lines[:0]
	for i := range h.nodeDemand {
		h.nodeDemand[i] = 0
	}
}

// growLines extends the line table to cover line: within its capacity by
// at least doubling its length, beyond it into a new array of twice the
// capacity (power-of-two sizing amortizes growth over the bump allocator's
// monotone address space).
func (h *Hierarchy) growLines(line int64) {
	if line >= maxLine {
		panic(fmt.Sprintf("cache: line %d does not fit a packed way (line numbers must stay below %d)", line, int64(maxLine)))
	}
	n := max(line+1, 2*int64(len(h.lines)))
	if line < int64(cap(h.lines)) {
		h.lines = h.lines[:min(n, int64(cap(h.lines)))]
		return
	}
	c := int64(cap(h.lines))
	if c == 0 {
		c = 1 << 10
	}
	for c <= line {
		c *= 2
	}
	c = min(c, maxLine)
	nl := make([]lineState, min(n, c), c)
	copy(nl, h.lines)
	h.lines = nl
}
