// Package machine models the hardware substrate the simulated runtime
// executes on: a multi-socket NUMA topology with a distance table, and a
// paged memory with configurable page-placement policies.
//
// The model stands in for the paper's 48-core four-socket AMD Opteron 6172
// test machine. Only the properties the grain-graph analyses depend on are
// modelled: which socket a core belongs to, how far apart two cores are
// (for the scatter metric), and which NUMA node owns each memory page (for
// remote-access latency and the work-inflation experiments).
package machine

import "fmt"

// Topology describes a machine as sockets × cores-per-socket with a
// symmetric NUMA distance table between sockets.
type Topology struct {
	sockets        int
	coresPerSocket int
	distance       [][]int // socket × socket, ACPI-SLIT style (10 = local)
}

// New builds a topology with the given socket count and cores per socket.
// The NUMA distance between sockets i and j is 10 + 6*ring(i,j), where
// ring is the minimal hop count on a ring interconnect; the diagonal is 10,
// matching the convention of ACPI SLIT tables.
func New(sockets, coresPerSocket int) *Topology {
	if sockets <= 0 || coresPerSocket <= 0 {
		panic(fmt.Sprintf("machine: invalid topology %dx%d", sockets, coresPerSocket))
	}
	d := make([][]int, sockets)
	for i := range d {
		d[i] = make([]int, sockets)
		for j := range d[i] {
			hops := i - j
			if hops < 0 {
				hops = -hops
			}
			if wrap := sockets - hops; wrap < hops {
				hops = wrap
			}
			d[i][j] = 10 + 6*hops
		}
	}
	return &Topology{sockets: sockets, coresPerSocket: coresPerSocket, distance: d}
}

// Default48 returns the paper's evaluation machine shape: four sockets of
// twelve cores each (48 cores total).
func Default48() *Topology { return New(4, 12) }

// NumCores returns the total number of cores.
func (t *Topology) NumCores() int { return t.sockets * t.coresPerSocket }

// NumSockets returns the number of sockets (== NUMA nodes in this model).
func (t *Topology) NumSockets() int { return t.sockets }

// Socket returns the socket (NUMA node) a core belongs to.
func (t *Topology) Socket(core int) int {
	if core < 0 || core >= t.NumCores() {
		panic(fmt.Sprintf("machine: core %d out of range [0,%d)", core, t.NumCores()))
	}
	return core / t.coresPerSocket
}

// NodeDistance returns the SLIT-style distance between two NUMA nodes.
func (t *Topology) NodeDistance(a, b int) int { return t.distance[a][b] }
