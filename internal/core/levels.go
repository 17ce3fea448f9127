package core

import (
	"fmt"
	"strings"
)

// Topological levels over the columnar store: level(n) is n's longest-path
// depth — 0 for sources, otherwise 1 + the maximum level among its
// predecessors. Every edge crosses from a strictly lower level to a higher
// one, so a level-synchronous pass (process level 0, then 1, …) may relax
// all nodes of one level concurrently: each node reads only state settled
// by earlier levels and writes only its own slot. The parallel
// critical-path DP in internal/metrics is built on exactly this guarantee.
//
// The index is stored CSR-style (levelOff offsets into levelNodes) and
// built lazily like the adjacency arrays; within a level, nodes appear in
// ascending NodeID order, so the slices returned by LevelNodes — and any
// fixed chunking over them — are deterministic regardless of edge insertion
// order. Building is not goroutine-safe; concurrent readers must force the
// index first (call NumLevels once), exactly as with Out/In.

// buildLevels computes the level of every node and the level index. It
// panics on a cyclic graph: Build makes acyclic graphs, and AdoptGraph
// rejects cyclic ones through indexLevels.
func (s *GraphStore) buildLevels() {
	if err := s.indexLevels(); err != nil {
		panic("core: level index requested on cyclic graph: " + err.Error())
	}
}

// indexLevels computes the level of every node and the level index, or
// returns an error naming a cycle if the edges close one.
func (s *GraphStore) indexLevels() error {
	n, e := len(s.kind), len(s.edgeFrom)
	level := make([]int32, n)
	indeg := make([]int32, n)
	for i := 0; i < e; i++ {
		indeg[s.edgeTo[i]]++
	}
	if s.outOff == nil {
		s.buildCSR()
	}
	queue := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	visited := 0
	maxLevel := int32(-1)
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		visited++
		if level[v] > maxLevel {
			maxLevel = level[v]
		}
		for _, ei := range s.outIdx[s.outOff[v]:s.outOff[v+1]] {
			to := s.edgeTo[ei]
			if l := level[v] + 1; l > level[to] {
				level[to] = l
			}
			indeg[to]--
			if indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	if visited != n {
		return s.cycleError(indeg)
	}
	s.nodeLevel = level

	// Counting sort by level into the queue's storage, empty now: filling
	// each level from its end, nodes in descending ID order, leaves every
	// level's list ascending and its offset at its start.
	numLevels := int(maxLevel) + 1
	off := make([]int32, numLevels+1)
	for _, l := range level {
		off[l]++
	}
	for i := 1; i <= numLevels; i++ {
		off[i] += off[i-1]
	}
	nodes := queue[:n]
	for i := n - 1; i >= 0; i-- {
		l := level[i]
		off[l]--
		nodes[off[l]] = int32(i)
	}
	s.levelOff, s.levelNodes = off, nodes
	return nil
}

// cycleError names one cycle among the nodes a level pass could not reach,
// those left with indeg > 0. Each has a predecessor left the same way, so
// walking predecessors from one of them revisits a node, and the walk from
// that node on is a cycle.
func (s *GraphStore) cycleError(indeg []int32) error {
	v := int32(0)
	for indeg[v] == 0 {
		v++
	}
	at := map[int32]int{} // position of each node on the walk
	var walk []int32
	for {
		if i, ok := at[v]; ok {
			walk = walk[i:]
			break
		}
		at[v] = len(walk)
		walk = append(walk, v)
		for _, ei := range s.inIdx[s.inOff[v]:s.inOff[v+1]] {
			if from := s.edgeFrom[ei]; indeg[from] > 0 {
				v = from
				break
			}
		}
	}
	// The walk runs against the edges; name the cycle along them, back to
	// its first node, eliding all but the first few.
	const shown = 8
	var b strings.Builder
	for k := 0; k <= len(walk); k++ {
		if k > 0 {
			b.WriteString(" → ")
		}
		if k == shown && len(walk) > shown {
			b.WriteString("…")
			break
		}
		fmt.Fprint(&b, walk[(2*len(walk)-1-k)%len(walk)])
	}
	return fmt.Errorf("edges close a cycle of %d nodes: %s", len(walk), b.String())
}

// NumLevels returns the number of topological levels (0 for an empty
// graph), building the level index if needed. Like Out/In, building is not
// goroutine-safe: force the index before concurrent reads.
func (s *GraphStore) NumLevels() int {
	if len(s.kind) == 0 {
		return 0
	}
	if s.levelOff == nil {
		s.buildLevels()
	}
	return len(s.levelOff) - 1
}

// LevelNodes returns the NodeIDs at level l in ascending order. The slice
// aliases the level index: read, don't mutate.
func (s *GraphStore) LevelNodes(l int) []int32 {
	if s.levelOff == nil {
		s.buildLevels()
	}
	return s.levelNodes[s.levelOff[l]:s.levelOff[l+1]]
}

// Level returns node n's topological level (its longest-path depth), with
// the same lazy-build and concurrency contract as NumLevels: force the index
// before concurrent reads. The delta-aware critical-path DP uses it to order
// its dirty frontier without re-walking untouched levels.
func (s *GraphStore) Level(n NodeID) int {
	if s.levelOff == nil {
		s.buildLevels()
	}
	return int(s.nodeLevel[n])
}
