package core

import (
	"sort"

	"graingraph/internal/profile"
)

// Build constructs the grain graph from a profiled trace.
//
// Construction is two-pass: the first pass creates each task's fragment,
// fork and join nodes (expanding parallel for-loops into book-keeping/chunk
// chains) and wires intra-context continuation edges; the second pass wires
// creation edges (fork → child's first fragment) and join edges (child's
// last fragment → join node) across contexts.
func Build(tr *profile.Trace) *Graph {
	g := newGraph(tr)
	g.derived = true
	g.Reserve(estimateSize(tr))
	g.FirstNode, g.LastNode = noSpans(tr.NumGrains()), noSpans(tr.NumGrains())

	// boundaryNodes[row] is the fork/join node created for the row-th
	// boundary in task order (loops record their fork node here).
	bounds := 0
	for _, task := range tr.Tasks {
		bounds += len(task.Boundaries)
	}
	boundaryNodes := make([]NodeID, bounds)

	// Per-(loop,thread) bookkeeping totals, for the final book-keeping node.
	type loopThreadKey struct {
		loop   profile.LoopID
		thread int
	}
	bkTotals := make(map[loopThreadKey]*profile.BookkeepRecord)
	for _, bk := range tr.Bookkeeps {
		bkTotals[loopThreadKey{bk.Loop, bk.Thread}] = bk
	}
	chunksByLoop := make(map[profile.LoopID][]int32) // indexes into tr.Chunks
	for j, ck := range tr.Chunks {
		chunksByLoop[ck.Loop] = append(chunksByLoop[ck.Loop], int32(j))
	}

	// Pass 1: nodes and intra-context edges.
	row := 0
	for ti, task := range tr.Tasks {
		var prev NodeID = -1
		num := int32(ti)
		for fi := range task.Fragments {
			f := &task.Fragments[fi]
			n := g.appendNode(Node{
				Kind:     NodeFragment,
				GrainNum: num,
				Seq:      fi,
				Start:    f.Start,
				End:      f.End,
				Weight:   f.Duration(),
				Core:     f.Core,
			})
			if fi == 0 {
				g.FirstNode[ti] = n
			}
			g.LastNode[ti] = n
			if prev >= 0 {
				g.appendEdge(prev, n, EdgeContinuation)
			}
			prev = n

			if fi < len(task.Boundaries) {
				b := &task.Boundaries[fi]
				var bn NodeID
				switch b.Kind {
				case profile.BoundaryFork:
					cost := tr.Tasks[b.Child].CreateCost
					bn = g.appendNode(Node{
						Kind:     NodeFork,
						GrainNum: num,
						Seq:      fi,
						Start:    b.At,
						End:      b.At + cost,
						Weight:   cost,
						Core:     f.Core,
					})
				case profile.BoundaryJoin:
					bn = g.appendNode(Node{
						Kind:     NodeJoin,
						GrainNum: num,
						Seq:      fi,
						Start:    b.At,
						End:      b.At + b.Suspended,
						Weight:   b.Wait,
						Core:     f.Core,
					})
				case profile.BoundaryLoop:
					bn = g.expandLoop(b.Loop, num, fi, chunksByLoop[b.Loop], func(thread int) *profile.BookkeepRecord {
						return bkTotals[loopThreadKey{b.Loop, thread}]
					})
				}
				g.appendEdge(prev, bn, EdgeContinuation)
				// The node the NEXT fragment hangs off: for loops that is the
				// loop's join node, recorded by expandLoop via lastLoopJoin.
				next := bn
				if b.Kind == profile.BoundaryLoop {
					next = g.lastLoopJoin
				}
				boundaryNodes[row+fi] = bn
				prev = next
			}
		}
		row += len(task.Boundaries)
	}

	// Pass 2: cross-context creation and join edges (to children with nodes).
	row = 0
	for _, task := range tr.Tasks {
		for fi := range task.Boundaries {
			b, bn := &task.Boundaries[fi], boundaryNodes[row]
			row++
			switch b.Kind {
			case profile.BoundaryFork:
				if first := g.FirstNode[b.Child]; first >= 0 {
					g.appendEdge(bn, first, EdgeCreation)
				}
			case profile.BoundaryJoin:
				for _, child := range b.Joined {
					if last := g.LastNode[child]; last >= 0 {
						g.appendEdge(last, bn, EdgeJoin)
					}
				}
			}
		}
	}
	return g
}

// estimateSize predicts Build's node and edge counts from the trace so the
// columnar store can be reserved in one shot. The node count is exact for
// the construction below (fragments, one fork/join per non-loop boundary,
// and per loop: fork + join + a book-keeping node per chunk and per
// participating thread + a chunk node per chunk); the edge estimate errs a
// few percent high (joins with absent children), which only costs slack
// capacity, never a mid-build reallocation.
func estimateSize(tr *profile.Trace) (nodes, edges int) {
	for _, task := range tr.Tasks {
		nodes += len(task.Fragments)
		for i := range task.Boundaries {
			if task.Boundaries[i].Kind != profile.BoundaryLoop {
				nodes++
				// continuation in, plus creation out (fork) or joined-children
				// edges in (join).
				edges += 2 + len(task.Boundaries[i].Joined)
			}
		}
		if len(task.Fragments) > 1 {
			edges += len(task.Fragments) - 1
		}
	}
	for _, l := range tr.Loops {
		// fork + join + final book-keeping node per thread; each thread chain
		// contributes one creation edge, per-node continuation edges and one
		// join edge.
		nodes += 2 + len(l.Threads)
		edges += 1 + 2*len(l.Threads)
	}
	// Each chunk adds a book-keeping + chunk node pair and two chain edges.
	nodes += 2 * len(tr.Chunks)
	edges += 2 * len(tr.Chunks)
	return nodes, edges
}

// expandLoop creates the loop's fork node, per-thread
// bookkeeping/chunk chains, and join node; returns the fork node and
// records the join node in g.lastLoopJoin.
func (g *Graph) expandLoop(id profile.LoopID, master int32, fi int,
	chunks []int32,
	bkFor func(thread int) *profile.BookkeepRecord) NodeID {

	tr := g.Trace
	loop := tr.Loop(id)
	firstChunk := int32(len(tr.Tasks)) // grain number of tr.Chunks[0]

	fork := g.appendNode(Node{
		Kind:     NodeFork,
		GrainNum: master,
		Loop:     id,
		Seq:      fi,
		Start:    loop.Start,
		End:      loop.Start,
		Core:     loop.StartThread,
		Members:  len(loop.Threads), // conceptually one fork per thread chain
	})
	join := g.appendNode(Node{
		Kind:     NodeJoin,
		GrainNum: master,
		Loop:     id,
		Seq:      fi,
		Start:    loop.End,
		End:      loop.End,
		Core:     loop.StartThread,
	})

	byThread := make(map[int][]int32)
	for _, j := range chunks {
		th := tr.Chunks[j].Thread
		byThread[th] = append(byThread[th], j)
	}
	for _, cks := range byThread {
		sort.Slice(cks, func(i, j int) bool { return tr.Chunks[cks[i]].Start < tr.Chunks[cks[j]].Start })
	}

	for _, thread := range loop.Threads {
		cks := byThread[thread]
		var bkSpent profile.Time
		prev := NodeID(-1)
		for _, j := range cks {
			ck := tr.Chunks[j]
			bk := g.appendNode(Node{
				Kind:     NodeBookkeep,
				GrainNum: master,
				Loop:     id,
				Seq:      ck.Seq,
				Start:    ck.Start - ck.Bookkeep,
				End:      ck.Start,
				Weight:   ck.Bookkeep,
				Core:     thread,
			})
			bkSpent += ck.Bookkeep
			if prev < 0 {
				g.appendEdge(fork, bk, EdgeCreation)
			} else {
				g.appendEdge(prev, bk, EdgeContinuation)
			}
			cid := firstChunk + j
			cn := g.appendNode(Node{
				Kind:     NodeChunk,
				GrainNum: cid,
				Loop:     id,
				Seq:      ck.Seq,
				Start:    ck.Start,
				End:      ck.End,
				Weight:   ck.Duration(),
				Core:     thread,
			})
			g.FirstNode[cid] = cn
			g.LastNode[cid] = cn
			g.appendEdge(bk, cn, EdgeContinuation)
			prev = cn
		}
		// Final (empty) book-keeping grab before joining the barrier.
		var finalCost profile.Time
		if rec := bkFor(thread); rec != nil && rec.Total > bkSpent {
			finalCost = rec.Total - bkSpent
		}
		fbk := g.appendNode(Node{
			Kind:     NodeBookkeep,
			GrainNum: master,
			Loop:     id,
			Seq:      len(cks),
			Weight:   finalCost,
			Core:     thread,
		})
		if prev < 0 {
			g.appendEdge(fork, fbk, EdgeCreation)
		} else {
			g.appendEdge(prev, fbk, EdgeContinuation)
		}
		g.appendEdge(fbk, join, EdgeJoin)
	}

	g.lastLoopJoin = join
	return fork
}
