package machine

import "fmt"

// PageSize is the granularity of NUMA placement, in bytes.
const PageSize = 4096

// Policy selects how memory pages are assigned to NUMA nodes.
type Policy int

const (
	// FirstTouch assigns a page to the NUMA node of the core that first
	// accesses it. This is the Linux default and the "before" configuration
	// in the paper's Sort experiment: the master thread initializes the
	// array, so every page lands on node 0 and all other sockets pay remote
	// latency.
	FirstTouch Policy = iota
	// RoundRobin interleaves pages across NUMA nodes in address order.
	// This is the paper's Sort optimization ("round-robin memory page
	// distribution to different NUMA nodes").
	RoundRobin
	// Node0 pins every page to node 0 regardless of who touches it.
	Node0
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case FirstTouch:
		return "first-touch"
	case RoundRobin:
		return "round-robin"
	case Node0:
		return "node0"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Region is a named contiguous allocation in the simulated address space.
// Workloads allocate regions for their major data structures and express
// memory accesses as offsets into them.
type Region struct {
	Name string
	Base int64 // byte address, PageSize aligned
	Size int64 // bytes
}

// Memory is the simulated physical memory: an allocator plus a page table
// mapping pages to NUMA nodes under the configured placement policy.
//
// The page table is a flat array indexed by page number: the bump allocator
// hands out addresses densely from zero, so the table stays proportional to
// the allocated footprint, and the per-access node lookup — one of the
// simulator's hottest operations — is an array load instead of the map
// probe it replaced.
type Memory struct {
	topo   *Topology
	policy Policy
	next   int64   // bump allocator cursor
	pages  []int16 // page index -> NUMA node; -1 = not yet placed
	rr     int     // next node for round-robin placement
}

// NewMemory creates an empty memory for the given topology and policy.
func NewMemory(topo *Topology, policy Policy) *Memory {
	return &Memory{topo: topo, policy: policy}
}

// Alloc reserves size bytes and returns the region. The region is
// page-aligned; placement of its pages follows the memory's policy and, for
// first-touch, happens lazily at first access.
func (m *Memory) Alloc(name string, size int64) *Region {
	if size <= 0 {
		panic(fmt.Sprintf("machine: Alloc(%q, %d): size must be positive", name, size))
	}
	base := m.next
	aligned := (size + PageSize - 1) / PageSize * PageSize
	m.next += aligned
	return &Region{Name: name, Base: base, Size: size}
}

// NodeOf resolves the NUMA node owning the page containing addr, assigning
// it per policy if this is the first access. touchingCore identifies the
// core performing the access (used by first-touch).
func (m *Memory) NodeOf(addr int64, touchingCore int) int {
	page := addr / PageSize
	if page < int64(len(m.pages)) {
		if node := m.pages[page]; node >= 0 {
			return int(node)
		}
	} else {
		m.growPages(page)
	}
	var node int
	switch m.policy {
	case FirstTouch:
		node = m.topo.Socket(touchingCore)
	case RoundRobin:
		node = m.rr
		m.rr = (m.rr + 1) % m.topo.NumSockets()
	case Node0:
		node = 0
	default:
		panic(fmt.Sprintf("machine: unknown policy %v", m.policy))
	}
	m.pages[page] = int16(node)
	return node
}

// growPages extends the page table to cover page, marking new slots
// unplaced.
func (m *Memory) growPages(page int64) {
	n := int64(len(m.pages))
	if n == 0 {
		n = 1 << 10
	}
	for n <= page {
		n *= 2
	}
	np := make([]int16, n)
	for i := len(m.pages); i < len(np); i++ {
		np[i] = -1
	}
	copy(np, m.pages)
	m.pages = np
}

// Reset forgets all page placements (but not allocations), so a fresh run
// can re-apply first-touch placement.
func (m *Memory) Reset() {
	for i := range m.pages {
		m.pages[i] = -1
	}
	m.rr = 0
}
