package lod

import "graingraph/internal/query"

// Table exposes the summary index as a columnar query table — the
// "from tasks" source of the query grammar. One row per task slot in
// interning order (the order Build discovered owners, which is
// deterministic), with the per-task aggregates the window selector reads:
//
//	id       string  task grain ID
//	depth    int     spawn-tree depth (-1 for non-task owners)
//	parent   string  parent task ID ("" for roots)
//	ownwork  int     work of the task's own nodes
//	subwork  int     subtree work rollup (self included)
//	subnodes int     subtree node count
//	subtasks int     subtree task count
//	subprobs int     subtree highlight-problem count
//	crit     int     1 when the subtree touches the critical path
//	start    int     earliest node start in the subtree (0 = unknown)
//	end      int     latest node end in the subtree
//
// Column slices are fresh copies, so plans over the table never alias the
// index's internals.
func (ix *Index) Table() *query.Table {
	n := len(ix.grain)
	id := make([]string, n)
	parent := make([]string, n)
	depth := make([]int64, n)
	ownwork := make([]int64, n)
	subwork := make([]int64, n)
	subnodes := make([]int64, n)
	subtasks := make([]int64, n)
	subprobs := make([]int64, n)
	crit := make([]int64, n)
	start := make([]int64, n)
	end := make([]int64, n)
	for si := 0; si < n; si++ {
		id[si] = string(ix.id(int32(si)))
		if p := ix.par[si]; p >= 0 {
			parent[si] = string(ix.id(p))
		}
		depth[si] = int64(ix.depth[si])
		ownwork[si] = ix.ownWork[si]
		subwork[si] = ix.subWork[si]
		subnodes[si] = int64(ix.subNodes[si])
		subtasks[si] = int64(ix.subTasks[si])
		subprobs[si] = int64(ix.subProbs[si])
		if ix.critSub[si] {
			crit[si] = 1
		}
		start[si] = int64(ix.startMin[si])
		end[si] = int64(ix.endMax[si])
	}
	t := query.NewTable(n)
	t.AddStr("id", id)
	t.AddInt("depth", depth)
	t.AddStr("parent", parent)
	t.AddInt("ownwork", ownwork)
	t.AddInt("subwork", subwork)
	t.AddInt("subnodes", subnodes)
	t.AddInt("subtasks", subtasks)
	t.AddInt("subprobs", subprobs)
	t.AddInt("crit", crit)
	t.AddInt("start", start)
	t.AddInt("end", end)
	return t
}
