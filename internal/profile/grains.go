package profile

import (
	"sort"
	"strconv"

	"graingraph/internal/cache"
)

// Grain is the unified per-grain view used by the metric derivations: one
// row per task instance or chunk instance with everything the paper's
// metrics need.
type Grain struct {
	ID     GrainID
	Kind   Kind
	Loc    SrcLoc
	Parent GrainID // task parent, or the loop pseudo-parent for chunks
	Depth  int

	// Num is the grain's number in its trace and ParentKey the key of its
	// Parent string (see Numbering); both are what analyses index by.
	Num       int32
	ParentKey int32

	Start, End Time // wall-clock span (first fragment start .. last end)
	Exec       Time // execution time excluding suspension

	Core     int // core of the first fragment / the chunk's core
	Counters cache.Counters

	// Parallelization cost components (paper §3.2, "parallel benefit"):
	// CreateCost is the creation cost borne by the parent (book-keeping cost
	// for chunks); SyncShare is the grain's share of the parent's
	// synchronization wait.
	CreateCost Time
	SyncShare  Time

	// Inlined marks runtime-throttled tasks.
	Inlined bool
}

// ParallelizationCost returns CreateCost + SyncShare.
func (g *Grain) ParallelizationCost() Time { return g.CreateCost + g.SyncShare }

// LoopParentID is the pseudo-parent grain ID shared by all chunks of a loop,
// making them siblings for the scatter metric.
func LoopParentID(id LoopID) GrainID {
	return GrainID("loop:" + strconv.Itoa(int(id)))
}

// Grains flattens the trace into the unified grain view, sorted by start
// time (ties broken by ID for determinism).
func (tr *Trace) Grains() []*Grain {
	nb := tr.Numbering()
	nT := len(tr.Tasks)

	// Distribute each task's join waits over the children synchronized at
	// that join: child's SyncShare = wait / #joined.
	syncShare := make([]Time, nb.NumGrains())
	for ti, t := range tr.Tasks {
		row := nb.BoundOff[ti]
		for i := range t.Boundaries {
			b := &t.Boundaries[i]
			if b.Kind != BoundaryJoin || len(b.Joined) == 0 {
				continue
			}
			share := b.Wait / Time(len(b.Joined))
			for _, child := range nb.JoinedOf(row + int32(i)) {
				if child >= 0 {
					syncShare[child] += share
				}
			}
		}
	}

	// One backing array for all rows: the view is built and dropped as a
	// whole, and a million separate rows are a million objects to trace.
	rows := make([]Grain, nb.NumGrains())
	grains := make([]*Grain, len(rows))
	for i, t := range tr.Tasks {
		rows[i] = Grain{
			ID:         t.ID,
			Num:        int32(i),
			Kind:       KindTask,
			Loc:        t.Loc,
			Parent:     t.Parent,
			ParentKey:  nb.Parent[i],
			Depth:      t.Depth,
			Start:      t.StartTime,
			End:        t.EndTime,
			Exec:       t.ExecTime(),
			Core:       t.FirstCore(),
			Counters:   t.TotalCounters(),
			CreateCost: t.CreateCost,
			SyncShare:  syncShare[i],
			Inlined:    t.Inlined,
		}
	}
	for j, c := range tr.Chunks {
		n := nT + j
		loc := SrcLoc{}
		if li := nb.ChunkLoop[j]; li >= 0 {
			loc = tr.Loops[li].Loc
		}
		rows[n] = Grain{
			ID:         nb.IDs[n],
			Num:        int32(n),
			Kind:       KindChunk,
			Loc:        loc,
			Parent:     nb.ParentID(nb.Parent[n]),
			ParentKey:  nb.Parent[n],
			Depth:      1,
			Start:      c.Start,
			End:        c.End,
			Exec:       c.Duration(),
			Core:       c.Thread,
			Counters:   c.Counters,
			CreateCost: c.Bookkeep,
		}
	}
	for i := range rows {
		grains[i] = &rows[i]
	}

	sort.Slice(grains, func(i, j int) bool {
		if grains[i].Start != grains[j].Start {
			return grains[i].Start < grains[j].Start
		}
		return grains[i].ID < grains[j].ID
	})
	return grains
}

// SiblingSets groups grains into sibling sets — the grains that share a
// parent — as a CSR over the parent keys: set s is
// members[off[s]:off[s+1]], positions in grains in their given order. Sets
// are ordered by parent ID string.
func (tr *Trace) SiblingSets(grains []*Grain) (off, members []int32) {
	nb := tr.Numbering()
	count := make([]int32, nb.NumParentKeys()+1)
	for _, g := range grains {
		count[g.ParentKey+1]++
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
	members = make([]int32, len(grains))
	for i, g := range grains {
		members[count[g.ParentKey+1]] = int32(i)
		count[g.ParentKey+1]++
	}
	return off, members
}

// GrainsByLoc groups grains by their source definition, the grouping
// Figure 7 of the paper uses ("performance grouped by definition in source
// files").
func GrainsByLoc(grains []*Grain) map[SrcLoc][]*Grain {
	m := make(map[SrcLoc][]*Grain)
	for _, g := range grains {
		m[g.Loc] = append(m[g.Loc], g)
	}
	return m
}
