package core

import (
	"fmt"
	"strconv"

	"graingraph/internal/profile"
)

// Reductions group nodes to speed up rendering (paper §3.1, Figure 3d-e,h).
// Grouped nodes retain the aggregate weights of their members (Weight,
// Members); Start/End span the members' extent.
//
// The canonical pipeline is ReduceAll = fragments → forks → book-keeping,
// matching the paper's presentation order.

// ReduceAll applies fragment, fork and book-keeping reduction in order.
func ReduceAll(g *Graph) *Graph {
	return ReduceBookkeeping(ReduceForks(ReduceFragments(g)))
}

// ReduceFragments merges each task's fragments into a single node
// (Figure 3d). Fork and join nodes remain, hanging off the merged node;
// the continuation edges that would loop back from a boundary node into the
// same task are dropped, exactly as in the paper's drawings.
func ReduceFragments(g *Graph) *Graph {
	return g.reduceBy(
		func(g *Graph, n NodeID) (string, bool) {
			if g.Kind(n) == NodeFragment {
				return "f:" + strconv.Itoa(int(g.GrainNum(n))), true
			}
			return "", false
		},
		func(g *Graph, from, to NodeID, kind EdgeKind) bool {
			// Drop boundary → own-task-fragment continuations (back-edges
			// into the merged node).
			fk := g.Kind(from)
			return kind == EdgeContinuation &&
				(fk == NodeFork || fk == NodeJoin) &&
				g.Kind(to) == NodeFragment && g.GrainNum(from) == g.GrainNum(to)
		},
	)
}

// ReduceForks combines the fork nodes of a task that precede the same join
// (Figure 3e): the group node carries one creation edge per child. Apply
// after ReduceFragments.
func ReduceForks(g *Graph) *Graph {
	// Key forks by (grain, index of the next join boundary at or after the
	// fork) using the trace's boundary lists.
	nextJoin := make([][]int, len(g.Trace.Tasks)) // per task: boundary idx -> next join idx
	for ti, task := range g.Trace.Tasks {
		idx := make([]int, len(task.Boundaries))
		next := len(task.Boundaries) // "no further join"
		for i := len(task.Boundaries) - 1; i >= 0; i-- {
			if task.Boundaries[i].Kind == profile.BoundaryJoin {
				next = i
			}
			idx[i] = next
		}
		nextJoin[ti] = idx
	}
	return g.reduceBy(
		func(g *Graph, n NodeID) (string, bool) {
			if g.Kind(n) != NodeFork {
				return "", false
			}
			num := int(g.GrainNum(n))
			if num >= len(nextJoin) || g.Seq(n) >= len(nextJoin[num]) {
				return "", false
			}
			return fmt.Sprintf("k:%d:%d", num, nextJoin[num][g.Seq(n)]), true
		},
		nil,
	)
}

// ReduceBookkeeping merges each thread's book-keeping nodes per loop
// (Figure 3h) and re-hangs that thread's chunks as siblings of the merged
// node: merged-bk → chunk continuations remain; chunk → bk back-edges are
// dropped so chunks appear executable in parallel, as they are by
// definition.
func ReduceBookkeeping(g *Graph) *Graph {
	return g.reduceBy(
		func(g *Graph, n NodeID) (string, bool) {
			if g.Kind(n) == NodeBookkeep {
				return fmt.Sprintf("b:%d:%d", g.Loop(n), g.Core(n)), true
			}
			return "", false
		},
		func(g *Graph, from, to NodeID, kind EdgeKind) bool {
			// Drop chunk → merged bookkeeping back-edges.
			return g.Kind(from) == NodeChunk && g.Kind(to) == NodeBookkeep &&
				g.Loop(from) == g.Loop(to) && g.Core(from) == g.Core(to)
		},
	)
}

// reduceBy builds a new graph where nodes sharing a group key merge into
// one node. dropEdge (optional) filters remapped edges; self-loops and
// duplicate edges are always removed.
func (g *Graph) reduceBy(groupKey func(*Graph, NodeID) (string, bool),
	dropEdge func(g *Graph, from, to NodeID, kind EdgeKind) bool) *Graph {

	// The reduced graph keeps g's grain numbering, hand-named grains
	// included.
	ng := newGraph(g.Trace)
	for _, id := range g.extra {
		ng.InternGrain(id)
	}
	newID := make([]NodeID, g.NumNodes())
	groups := make(map[string]NodeID)

	for n := NodeID(0); n < NodeID(g.NumNodes()); n++ {
		key, grouped := groupKey(g, n)
		if grouped {
			if rep, ok := groups[key]; ok {
				// Merge into the existing representative: accumulate the
				// aggregate columns and widen the time span.
				s := &ng.GraphStore
				s.weight[rep] += g.weight[n]
				s.members[rep] += g.members[n]
				nStart, nEnd := g.start[n], g.end[n]
				if nStart < s.start[rep] || s.start[rep] == 0 {
					if nStart != 0 || nEnd != 0 {
						if s.start[rep] == 0 && s.end[rep] == 0 {
							s.start[rep], s.end[rep] = nStart, nEnd
						} else if nStart < s.start[rep] {
							s.start[rep] = nStart
						}
					}
				}
				if nEnd > s.end[rep] {
					s.end[rep] = nEnd
				}
				newID[n] = rep
				continue
			}
		}
		cp := g.NodeAt(n)
		if grouped {
			cp.Label += "*"
		}
		nn := ng.appendNode(cp)
		newID[n] = nn
		if grouped {
			groups[key] = nn
		}
	}

	type edgeKey struct {
		from, to NodeID
		kind     EdgeKind
	}
	seen := make(map[edgeKey]bool)
	for i := 0; i < g.NumEdges(); i++ {
		oldFrom, oldTo, kind := g.EdgeFrom(i), g.EdgeTo(i), g.EdgeKindAt(i)
		from, to := newID[oldFrom], newID[oldTo]
		if from == to {
			continue
		}
		if dropEdge != nil && dropEdge(g, oldFrom, oldTo, kind) {
			continue
		}
		k := edgeKey{from, to, kind}
		if seen[k] {
			continue
		}
		seen[k] = true
		ng.appendEdge(from, to, kind)
	}

	remap := func(spans []NodeID) []NodeID {
		out := noSpans(len(spans))
		for num, nid := range spans {
			if nid >= 0 {
				out[num] = newID[nid]
			}
		}
		return out
	}
	ng.FirstNode, ng.LastNode = remap(g.FirstNode), remap(g.LastNode)
	return ng
}
