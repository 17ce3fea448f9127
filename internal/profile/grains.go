package profile

import (
	"sort"
	"strconv"

	"graingraph/internal/cache"
)

// Per-grain fields by grain number (see Numbering): grain n is Tasks[n]
// when n < len(Tasks) and Chunks[n-len(Tasks)] otherwise. These are what
// the per-grain analysis table reads a grain's identity, timing and
// counters from; nothing materializes a row per grain.

// GrainKind returns grain n's kind.
func (tr *Trace) GrainKind(n int32) Kind {
	if int(n) < len(tr.Tasks) {
		return KindTask
	}
	return KindChunk
}

// GrainLoc returns grain n's source definition: a chunk's is its loop's
// (zero when the trace records no such loop).
func (tr *Trace) GrainLoc(n int32) SrcLoc {
	if int(n) < len(tr.Tasks) {
		return tr.Tasks[n].Loc
	}
	if li := tr.Numbering().ChunkLoop[int(n)-len(tr.Tasks)]; li >= 0 {
		return tr.Loops[li].Loc
	}
	return SrcLoc{}
}

// GrainParent returns grain n's parent ID: a task's recorded parent ("" at
// the root), or a chunk's loop pseudo-parent.
func (tr *Trace) GrainParent(n int32) GrainID {
	nb := tr.Numbering()
	return nb.ParentID(nb.Parent[n])
}

// GrainDepth returns grain n's spawn depth; chunks sit at depth 1.
func (tr *Trace) GrainDepth(n int32) int {
	if int(n) < len(tr.Tasks) {
		return int(tr.Tasks[n].Depth)
	}
	return 1
}

// GrainSpan returns grain n's wall-clock span (first fragment start .. last
// end).
func (tr *Trace) GrainSpan(n int32) (start, end Time) {
	if int(n) < len(tr.Tasks) {
		t := tr.Tasks[n]
		return t.StartTime, t.EndTime
	}
	c := tr.Chunks[int(n)-len(tr.Tasks)]
	return c.Start, c.End
}

// GrainExec returns grain n's execution time, suspension excluded.
func (tr *Trace) GrainExec(n int32) Time {
	if int(n) < len(tr.Tasks) {
		return tr.Tasks[n].ExecTime()
	}
	return tr.Chunks[int(n)-len(tr.Tasks)].Duration()
}

// GrainCore returns the core of grain n's first fragment (a chunk's
// core), -1 when unrecorded.
func (tr *Trace) GrainCore(n int32) int {
	if int(n) < len(tr.Tasks) {
		return tr.Tasks[n].FirstCore()
	}
	return tr.Chunks[int(n)-len(tr.Tasks)].Thread
}

// GrainCounters returns grain n's cache counters.
func (tr *Trace) GrainCounters(n int32) cache.Counters {
	if int(n) < len(tr.Tasks) {
		return tr.Tasks[n].TotalCounters()
	}
	return tr.Chunks[int(n)-len(tr.Tasks)].Counters
}

// GrainCreateCost returns the creation cost grain n's parent paid for it
// (book-keeping cost for chunks): the first half of its parallelization
// cost (paper §3.2, "parallel benefit").
func (tr *Trace) GrainCreateCost(n int32) Time {
	if int(n) < len(tr.Tasks) {
		return tr.Tasks[n].CreateCost
	}
	return tr.Chunks[int(n)-len(tr.Tasks)].Bookkeep
}

// SyncShares returns each grain's share of its parent's synchronization
// wait, by grain number — the second half of its parallelization cost. A
// join's wait is spread evenly over the children synchronized there.
func (tr *Trace) SyncShares() []Time {
	share := make([]Time, tr.NumGrains())
	for _, t := range tr.Tasks {
		for i := range t.Boundaries {
			b := &t.Boundaries[i]
			if b.Kind != BoundaryJoin || len(b.Joined) == 0 {
				continue
			}
			s := b.Wait / Time(len(b.Joined))
			for _, child := range b.Joined {
				share[child] += s
			}
		}
	}
	return share
}

// LoopParentID is the pseudo-parent grain ID shared by all chunks of a loop,
// making them siblings for the scatter metric.
func LoopParentID(id LoopID) GrainID {
	return GrainID("loop:" + strconv.Itoa(int(id)))
}

// SiblingSets groups grains into sibling sets — the grains that share a
// parent — as a CSR over the parent keys: set s is
// members[off[s]:off[s+1]], positions in nums (grain numbers) in their
// given order. Sets are ordered by parent ID string.
func (tr *Trace) SiblingSets(nums []int32) (off, members []int32) {
	nb := tr.Numbering()
	count := make([]int32, nb.NoParent()+2)
	for _, n := range nums {
		count[nb.Parent[n]+1]++
	}
	var keys []int32
	for k, c := range count[1:] {
		if c > 0 {
			keys = append(keys, int32(k))
		}
	}
	sort.Slice(keys, func(i, j int) bool { return nb.ParentID(keys[i]) < nb.ParentID(keys[j]) })

	// count becomes each key's fill cursor, in set order.
	off = make([]int32, len(keys)+1)
	for s, k := range keys {
		off[s+1] = off[s] + count[k+1]
		count[k+1] = off[s]
	}
	members = make([]int32, len(nums))
	for i, n := range nums {
		p := nb.Parent[n]
		members[count[p+1]] = int32(i)
		count[p+1]++
	}
	return off, members
}
