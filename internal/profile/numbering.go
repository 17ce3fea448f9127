package profile

// Grain numbers.
//
// A GrainID is a string so that it is schedule-independent; everything
// downstream of a finished trace wants an array index instead. Every grain
// of a trace therefore has one number, fixed by the record order:
// Tasks[i] is grain i and Chunks[j] is grain len(Tasks)+j — the order the
// .ggp v2 task and chunk sections store them in.
// The string references the records carry (TaskRecord.Parent,
// Boundary.Child, Boundary.Joined, a chunk's loop pseudo-parent) are
// resolved to numbers once per trace, lazily, by the single interning pass
// below; its id → number map is the only string-keyed grain map in the
// tree and serves the ids that arrive from outside (Trace.Task, what-if
// specs, window roots, baseline matching).

// Numbering is a trace's grain numbering with every string reference
// resolved. All slices are shared with the trace: read, don't mutate.
type Numbering struct {
	// Tasks, Chunks and Loops are the record counts that fix the number
	// spaces below.
	Tasks, Chunks, Loops int

	// IDs maps a grain number to its ID: task IDs, then chunk grain IDs.
	IDs []GrainID

	// Parent maps a grain number to its parent key. Keys extend the grain
	// numbers so that every distinct Parent string has exactly one key:
	// [0,Tasks+Chunks) are grains, the next Loops keys are the loop
	// pseudo-parents of tr.Loops in order, and keys beyond name parent
	// strings the trace records no grain for (the root's empty parent, a
	// dangling reference). Grains with equal keys are siblings.
	Parent []int32

	// ChunkLoop maps chunk j to its loop's index in tr.Loops, or -1.
	ChunkLoop []int32

	// Boundary references, flattened over tasks in record order: task t's
	// boundary i is row BoundOff[t]+i. Child is a fork's spawned grain;
	// a join's synchronized grains are Joined[JoinOff[row]:JoinOff[row+1]].
	// A reference the trace records no grain for is -1.
	BoundOff []int32
	Child    []int32
	JoinOff  []int32
	Joined   []int32

	byID        map[GrainID]int32
	loopParents []GrainID // pseudo-parent ID per loop
	unrecorded  []GrainID // parent strings beyond the grain and loop keys
	dupTask     int32     // first task whose ID repeats an earlier grain's, or -1
}

// NumGrains returns the grain count, Tasks+Chunks.
func (nb *Numbering) NumGrains() int { return nb.Tasks + nb.Chunks }

// NumParentKeys returns the size of the parent key space.
func (nb *Numbering) NumParentKeys() int {
	return nb.Tasks + nb.Chunks + nb.Loops + len(nb.unrecorded)
}

// ParentID returns the Parent string a parent key stands for.
func (nb *Numbering) ParentID(key int32) GrainID {
	k := int(key)
	if k < len(nb.IDs) {
		return nb.IDs[k]
	}
	if k -= len(nb.IDs); k < nb.Loops {
		return nb.loopParents[k]
	}
	return nb.unrecorded[k-nb.Loops]
}

// TaskParent returns the number of the task that spawned grain n, or -1
// when n's parent is not a recorded task (the root, a chunk, a dangling
// reference).
func (nb *Numbering) TaskParent(n int32) int32 {
	if p := nb.Parent[n]; int(p) < nb.Tasks {
		return p
	}
	return -1
}

// JoinedOf returns the grains synchronized at boundary row.
func (nb *Numbering) JoinedOf(row int32) []int32 {
	return nb.Joined[nb.JoinOff[row]:nb.JoinOff[row+1]]
}

// Lookup returns the number of the grain with the given ID, or -1.
func (nb *Numbering) Lookup(id GrainID) int32 {
	if n, ok := nb.byID[id]; ok && int(n) < len(nb.IDs) {
		return n
	}
	return -1
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

// number is the interning pass: it assigns the numbers, fills the id
// table and the id → number map, and resolves every reference against it.
func (tr *Trace) number(loopIdx map[LoopID]int32) *Numbering {
	nT, nC, nL := len(tr.Tasks), len(tr.Chunks), len(tr.Loops)
	nb := &Numbering{
		Tasks: nT, Chunks: nC, Loops: nL,
		Parent:      make([]int32, nT+nC),
		ChunkLoop:   make([]int32, nC),
		BoundOff:    make([]int32, nT+1),
		byID:        make(map[GrainID]int32, nT+nC+nL+1),
		IDs:         make([]GrainID, nT+nC),
		loopParents: make([]GrainID, nL),
		dupTask:     -1,
	}

	nBounds, nJoined := 0, 0
	for i, t := range tr.Tasks {
		nb.IDs[i] = t.ID
		before := len(nb.byID)
		nb.byID[t.ID] = int32(i)
		if len(nb.byID) == before && nb.dupTask < 0 {
			nb.dupTask = int32(i)
		}
		nBounds += len(t.Boundaries)
		nb.BoundOff[i+1] = int32(nBounds)
		for bi := range t.Boundaries {
			nJoined += len(t.Boundaries[bi].Joined)
		}
	}
	for j, c := range tr.Chunks {
		li, ok := loopIdx[c.Loop]
		if !ok {
			li = -1
		}
		nb.ChunkLoop[j] = li
		start := 0
		if li >= 0 {
			start = tr.Loops[li].StartThread
		}
		nb.IDs[nT+j] = c.ID(start)
		nb.byID[nb.IDs[nT+j]] = int32(nT + j)
	}
	for i, l := range tr.Loops {
		nb.loopParents[i] = LoopParentID(l.ID)
		if _, taken := nb.byID[nb.loopParents[i]]; !taken {
			nb.byID[nb.loopParents[i]] = int32(nT + nC + i)
		}
	}

	// Every grain is numbered; now the references. A Parent string always
	// gets a key (sibling sets are keyed by it, recorded or not); a Child
	// or Joined reference only resolves to a grain.
	parentKey := func(id GrainID) int32 {
		if k, ok := nb.byID[id]; ok {
			return k
		}
		k := int32(nT + nC + nL + len(nb.unrecorded))
		nb.byID[id] = k
		nb.unrecorded = append(nb.unrecorded, id)
		return k
	}
	nb.Child = make([]int32, nBounds)
	nb.JoinOff = make([]int32, nBounds+1)
	nb.Joined = make([]int32, 0, nJoined)
	row := 0
	for i, t := range tr.Tasks {
		nb.Parent[i] = parentKey(t.Parent)
		for bi := range t.Boundaries {
			b := &t.Boundaries[bi]
			nb.Child[row] = -1
			switch b.Kind {
			case BoundaryFork:
				nb.Child[row] = nb.Lookup(b.Child)
			case BoundaryJoin:
				for _, id := range b.Joined {
					nb.Joined = append(nb.Joined, nb.Lookup(id))
				}
			}
			row++
			nb.JoinOff[row] = int32(len(nb.Joined))
		}
	}
	for j, c := range tr.Chunks {
		if li := nb.ChunkLoop[j]; li >= 0 {
			nb.Parent[nT+j] = int32(nT + nC + int(li))
		} else {
			nb.Parent[nT+j] = parentKey(LoopParentID(c.Loop))
		}
	}
	return nb
}
