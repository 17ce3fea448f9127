package core

import (
	"strings"

	"graingraph/internal/profile"
)

// Owners is a graph's owner-task table: every node belongs to one task
// slot — the task that executed it, chunks through the task that ran their
// loop — and the slots are linked into the spawn tree. It is what the
// what-if engine's collapse hypotheses and the level-of-detail index both
// walk instead of grain IDs.
//
// Slots are numbered in first-appearance node order, followed by the
// spawn-tree ancestors that own no nodes themselves in the order the
// parent closure reaches them. That order is observable: it is the row
// order of the lod sidecar and breaks ties in top-N selections.
type Owners struct {
	Of     []int32 // node → owning slot
	Grain  []int32 // slot → grain number of the owning task
	Depth  []int32 // slot → spawn-tree depth; -1 for an owner that is no task
	Parent []int32 // slot → parent task's slot; -1 at a root
	// ByDepth lists the slots by ascending depth, the -1 ones first.
	// Depth grows by one per parent link, so read backwards it is
	// bottom-up: every slot comes before its parent.
	ByDepth []int32

	// LoopOwner maps each loop to the grain number of the task that
	// executed it, resolved from the graph's book-keeping nodes: chunk nodes
	// carry chunk grain numbers, so ownership of a chunk goes through its
	// loop.
	LoopOwner map[profile.LoopID]int32

	slot []int32 // grain number → slot, -1 for a grain that owns nothing
}

// Slot returns the slot of grain number num, or -1.
func (o *Owners) Slot(num int32) int32 {
	if num >= 0 && int(num) < len(o.slot) {
		return o.slot[num]
	}
	return -1
}

// Owners returns the graph's owner-task table, building it on first use.
// The table is shared: read, don't mutate. Appending a node drops it.
func (g *Graph) Owners() *Owners {
	g.ownersMu.Lock()
	defer g.ownersMu.Unlock()
	if g.owners == nil {
		g.owners = g.buildOwners()
	}
	return g.owners
}

func (g *Graph) buildOwners() *Owners {
	numNodes := len(g.kind)
	o := &Owners{
		Of:        make([]int32, numNodes),
		LoopOwner: make(map[profile.LoopID]int32),
		slot:      make([]int32, g.NumGrainNums()),
	}
	for i := range o.slot {
		o.slot[i] = -1
	}
	for n, k := range g.kind {
		if NodeKind(k) == NodeBookkeep {
			o.LoopOwner[profile.LoopID(g.loop[n])] = g.grain[n]
		}
	}
	// Slots are numbered as owners first appear; each slot's grain is
	// gathered from the grain → slot table once the count is known, so
	// the slot columns are allocated at their final size.
	grow := func(num int32) {
		for int(num) >= len(o.slot) {
			o.slot = append(o.slot, -1) // a grain numbered since the table was sized
		}
	}
	slots := int32(0)

	// Node ownership. Consecutive nodes of one task are the common layout,
	// so a run cache skips the slot table for them.
	lastOwner, lastSlot, ownerless := int32(-1), int32(-1), int32(-1)
	for n := 0; n < numNodes; n++ {
		owner := g.grain[n]
		if NodeKind(g.kind[n]) == NodeChunk {
			var ok bool
			if owner, ok = o.LoopOwner[profile.LoopID(g.loop[n])]; !ok {
				// A chunk whose loop has no book-keeping node (only a
				// hand-assembled graph has one) belongs to the nameless task.
				if ownerless < 0 {
					ownerless = g.InternGrain("")
				}
				owner = ownerless
			}
		}
		if owner != lastOwner || lastSlot < 0 {
			grow(owner)
			if o.slot[owner] < 0 {
				o.slot[owner] = slots
				slots++
			}
			lastOwner, lastSlot = owner, o.slot[owner]
		}
		o.Of[n] = lastSlot
	}
	o.Grain = make([]int32, slots)
	o.Parent = make([]int32, 0, slots)
	for num, si := range o.slot {
		if si >= 0 {
			o.Grain[si] = int32(num)
		}
	}

	// Parent closure: interning an ancestor appends a slot, and the loop
	// bound re-reads the slot count, so ancestors that own no nodes are
	// walked too.
	for si := 0; si < len(o.Grain); si++ {
		p := int32(-1)
		if pn := g.parentGrain(o.Grain[si]); pn >= 0 {
			grow(pn)
			if p = o.slot[pn]; p < 0 {
				p = int32(len(o.Grain))
				o.slot[pn] = p
				o.Grain = append(o.Grain, pn)
			}
		}
		o.Parent = append(o.Parent, p)
	}

	// Depths follow the parent links, so a slot's parent is always exactly
	// one level up: every ancestor walk ends after Depth steps.
	const unset = -2
	o.Depth = make([]int32, len(o.Grain))
	for i := range o.Depth {
		o.Depth[i] = unset
	}
	var path []int32
	for si := range o.Depth {
		for cur := int32(si); cur >= 0 && o.Depth[cur] == unset; cur = o.Parent[cur] {
			path = append(path, cur)
		}
		for i := len(path) - 1; i >= 0; i-- {
			s := path[i]
			if p := o.Parent[s]; p >= 0 {
				o.Depth[s] = o.Depth[p] + 1
			} else {
				o.Depth[s] = taskDepth(g.GrainID(o.Grain[s]))
			}
		}
		path = path[:0]
	}

	// A counting sort by depth, shifted by one so that -1 is a bucket.
	maxDepth := int32(-1)
	for _, d := range o.Depth {
		maxDepth = max(maxDepth, d)
	}
	next := make([]int32, maxDepth+3)
	for _, d := range o.Depth {
		next[d+2]++
	}
	for i := 1; i < len(next); i++ {
		next[i] += next[i-1]
	}
	o.ByDepth = make([]int32, len(o.Depth))
	for si, d := range o.Depth {
		o.ByDepth[next[d+1]] = int32(si)
		next[d+1]++
	}
	return o
}

// parentGrain returns the number of the task that spawned grain num, or -1
// at a root. For a task the trace records it is the record's Parent, taken
// only when it is an earlier record: Validate requires that of every
// trace read from disk, and requiring it here keeps a trace assembled in
// memory, which nothing validated, from closing a cycle. A chunk has no
// task parent. A grain only a hand-assembled graph names has the parent
// its path enumeration names: the parent of "R.a.b" is "R.a", recorded or
// not; every step shortens the path, and a recorded task never leads back
// to an unrecorded one, so no chain cycles.
func (g *Graph) parentGrain(num int32) int32 {
	if int(num) < len(g.ids) {
		if int(num) < len(g.Trace.Tasks) {
			if p := g.Trace.Tasks[num].Parent; p < num {
				return p
			}
		}
		return -1
	}
	id := g.GrainID(num)
	if d := taskDepth(id); d > 0 {
		return g.InternGrain(ancestorAt(id, int(d)-1))
	}
	return -1
}

// taskDepth returns the spawn-tree depth a task's path enumeration encodes
// ("R" = 0, "R.3.1" = 2), or -1 for an ID that is no task path.
func taskDepth(id profile.GrainID) int32 {
	if id == profile.RootID {
		return 0
	}
	s := string(id)
	if !strings.HasPrefix(s, string(profile.RootID)+".") {
		return -1
	}
	return int32(strings.Count(s, "."))
}

// ancestorAt truncates a task path to its ancestor at depth d ("R.a.b.c"
// at depth 1 → "R.a"). Path IDs place one dot per level, so the ancestor
// ends where the (d+1)-th dot begins and the result is a substring.
func ancestorAt(id profile.GrainID, d int) profile.GrainID {
	s := string(id)
	dots := 0
	for i := 0; i < len(s); i++ {
		if s[i] != '.' {
			continue
		}
		if dots == d {
			return profile.GrainID(s[:i])
		}
		dots++
	}
	return id
}
