package profile

import "sync"

// Grain numbers.
//
// A GrainID is a string so that it is schedule-independent; everything
// downstream of a finished trace wants an array index instead. Every grain
// of a trace therefore has one number, fixed by the record order:
// Tasks[i] is grain i and Chunks[j] is grain len(Tasks)+j — the order the
// .ggp v2 task and chunk sections store them in. The records name each
// other by these numbers (TaskRecord.Parent, Boundary.Child,
// Boundary.Joined): the runtimes fill them in as they append records, and
// the .ggp readers resolve the IDs the formats store once, through an
// IDIndex that the trace's Numbering then adopts. That id → number map is
// the only string-keyed grain map in the tree; besides the readers it
// serves the ids that arrive from outside (what-if specs, window roots,
// baseline matching).

// IDIndex maps grain IDs to grain numbers: a trace's one string-keyed
// grain map. A reader builds it from the task IDs it decodes (NewIDIndex),
// resolves the references its format stores as IDs through it, and hands
// it to the trace (Trace.AdoptIDIndex); the trace's Numbering adds the
// chunk IDs to the same map.
type IDIndex struct {
	byID map[GrainID]int32
	dup  int32     // first task whose ID repeats an earlier task's, or -1
	ids  []GrainID // the task IDs it numbers
}

// NewIDIndex numbers ids[i] as task i, with room for chunks chunk IDs
// more. Of repeated IDs the last keeps the number; Validate rejects a
// trace that repeats one. When ids has capacity for the chunk IDs too, the
// adopting trace's Numbering takes it over as its ID table.
func NewIDIndex(ids []GrainID, chunks int) *IDIndex {
	x := &IDIndex{byID: make(map[GrainID]int32, len(ids)+chunks), dup: -1, ids: ids}
	for i, id := range ids {
		before := len(x.byID)
		x.byID[id] = int32(i)
		if len(x.byID) == before && x.dup < 0 {
			x.dup = int32(i)
		}
	}
	return x
}

// Resolve returns the number of the task x indexes under id, or -1. The
// ID may be bytes, so that a reader resolves a reference in place without
// allocating a string for it.
func Resolve[S ~string | ~[]byte](x *IDIndex, id S) int32 {
	if n, ok := x.byID[GrainID(id)]; ok {
		return n
	}
	return -1
}

// AdoptIDIndex hands the trace the index a reader resolved its references
// through, so that its Numbering does not hash the task IDs again. It must
// be called before the trace is first numbered, with an index of exactly
// the trace's task IDs.
func (tr *Trace) AdoptIDIndex(x *IDIndex) { tr.ids = x }

// Numbering is a trace's grain numbering. All slices are shared with the
// trace: read, don't mutate.
type Numbering struct {
	// Tasks, Chunks and Loops are the record counts that fix the number
	// spaces below.
	Tasks, Chunks, Loops int

	// IDs maps a grain number to its ID: task IDs, then chunk grain IDs.
	IDs []GrainID

	// Parent maps a grain number to its parent key; grains with equal keys
	// are siblings. A task's key is its Parent, a task number; the next
	// Loops keys are the loop pseudo-parents of tr.Loops in order, a
	// chunk's; the last key, NoParent(), is the root's (and an unvalidated
	// chunk's whose loop the trace does not record).
	Parent []int32

	// ChunkLoop maps chunk j to its loop's index in tr.Loops, or -1.
	ChunkLoop []int32

	loopParents []GrainID // pseudo-parent ID per loop

	// The id → number map, built under indexOnce on the first Lookup or
	// Validate: most traces a runtime records are never asked for a grain
	// by ID. A reader's adopted index is used from the start.
	indexOnce sync.Once
	byID      map[GrainID]int32
	dupTask   int32 // first task whose ID repeats an earlier task's, or -1
}

// NumGrains returns the grain count, Tasks+Chunks.
func (nb *Numbering) NumGrains() int { return nb.Tasks + nb.Chunks }

// NoParent returns the parent key of the grains without a parent.
func (nb *Numbering) NoParent() int32 { return int32(nb.Tasks + nb.Loops) }

// ParentID returns the parent ID a parent key stands for: a task's ID, a
// loop pseudo-parent, or "" for NoParent.
func (nb *Numbering) ParentID(key int32) GrainID {
	switch k := int(key); {
	case k < nb.Tasks:
		return nb.IDs[k]
	case k < nb.Tasks+nb.Loops:
		return nb.loopParents[k-nb.Tasks]
	}
	return ""
}

// Lookup returns the number of the grain with the given ID, or -1.
func (nb *Numbering) Lookup(id GrainID) int32 {
	nb.index(nil)
	if n, ok := nb.byID[id]; ok {
		return n
	}
	return -1
}

// index builds the id → number map once: from x, a reader's index of the
// task IDs, when there is one, else from the task IDs; the chunk IDs join
// it either way.
func (nb *Numbering) index(x *IDIndex) {
	nb.indexOnce.Do(func() {
		if x == nil {
			x = NewIDIndex(nb.IDs[:nb.Tasks], nb.Chunks)
		}
		nb.byID, nb.dupTask = x.byID, x.dup
		for n := nb.Tasks; n < len(nb.IDs); n++ {
			nb.byID[nb.IDs[n]] = int32(n)
		}
	})
}

// duplicateTask returns the first task whose ID repeats an earlier task's,
// or -1.
func (nb *Numbering) duplicateTask() int32 {
	nb.index(nil)
	return nb.dupTask
}

// Numbering returns the trace's grain numbering, building it on first use.
func (tr *Trace) Numbering() *Numbering {
	tr.buildIndexes()
	return tr.numbering
}

// ID returns grain n's ID.
func (tr *Trace) ID(n int32) GrainID { return tr.Numbering().IDs[n] }

// ChunkID returns the full paper-style grain ID of Chunks[j], built from
// the loop's starting thread.
func (tr *Trace) ChunkID(j int) GrainID { return tr.Numbering().IDs[len(tr.Tasks)+j] }

// Lookup returns the number of the grain with the given ID, or -1.
func (tr *Trace) Lookup(id GrainID) int32 { return tr.Numbering().Lookup(id) }

// number assigns the numbers: it fills the id table and gathers the
// parent keys. The id → number map waits for its first use, unless a
// reader handed its index over: that one takes the chunk IDs now.
func (tr *Trace) number(loopIdx map[LoopID]int32) *Numbering {
	nT, nC, nL := len(tr.Tasks), len(tr.Chunks), len(tr.Loops)
	ids := make([]GrainID, 0, nT+nC)
	if x := tr.ids; x != nil && len(x.ids) == nT && cap(x.ids) >= nT+nC {
		ids = x.ids // the reader's task IDs, with room for the chunks'
	}
	nb := &Numbering{
		Tasks: nT, Chunks: nC, Loops: nL,
		IDs:         ids[:nT+nC],
		Parent:      make([]int32, nT+nC),
		ChunkLoop:   make([]int32, nC),
		loopParents: make([]GrainID, nL),
	}
	for i, t := range tr.Tasks {
		nb.IDs[i] = t.ID
		nb.Parent[i] = t.Parent
		if t.Parent < 0 {
			nb.Parent[i] = nb.NoParent()
		}
	}
	for i, l := range tr.Loops {
		nb.loopParents[i] = LoopParentID(l.ID)
	}
	for j, c := range tr.Chunks {
		li, ok := loopIdx[c.Loop]
		start, key := 0, nb.NoParent()
		if ok {
			start, key = tr.Loops[li].StartThread, int32(nT)+li
		} else {
			li = -1
		}
		nb.ChunkLoop[j] = li
		nb.Parent[nT+j] = key
		nb.IDs[nT+j] = c.ID(start)
	}
	if tr.ids != nil {
		nb.index(tr.ids)
	}
	return nb
}
