package core

import "sort"

// Layout geometry constants (points, yEd-friendly).
const (
	colWidth   = 70.0
	rowGap     = 18.0
	grainWidth = 34.0
	ctrlSize   = 14.0 // fork/join/bookkeep node size
	minGrainH  = 14.0
	maxGrainH  = 260.0
)

// Layout assigns X/Y/W/H to every node so the graph renders with children
// local to their parent and fragments aligned in sequence, edges never
// crossing — the properties the paper requires to convey recursive task
// creation. Placement uses creation edges only; timing is deliberately not
// a constraint (paper §3.1).
func Layout(g *Graph) {
	if g.NumNodes() == 0 {
		return
	}
	scale := g.heightScale()
	s := &g.GraphStore
	// Every node gets a size below and a position once placed, so fresh
	// columns need no copy of an earlier layout.
	if n := g.NumNodes(); len(s.geoX) != n {
		s.geoX, s.geoY = make([]float64, n), make([]float64, n)
		s.geoW, s.geoH = make([]float64, n), make([]float64, n)
	}

	// Node sizes first.
	for n := 0; n < g.NumNodes(); n++ {
		switch NodeKind(s.kind[n]) {
		case NodeFragment, NodeChunk:
			h := float64(s.weight[n]) / scale
			if h < minGrainH {
				h = minGrainH
			}
			if h > maxGrainH {
				h = maxGrainH
			}
			s.geoW[n], s.geoH[n] = grainWidth, h
		default:
			s.geoW[n], s.geoH[n] = ctrlSize, ctrlSize
		}
	}

	// continuation successor(s) and creation children per node.
	contOut := make(map[NodeID][]NodeID)
	createOut := make(map[NodeID][]NodeID)
	hasIn := make([]bool, g.NumNodes())
	for i := 0; i < g.NumEdges(); i++ {
		from, to := g.EdgeFrom(i), g.EdgeTo(i)
		switch g.EdgeKindAt(i) {
		case EdgeContinuation:
			contOut[from] = append(contOut[from], to)
			hasIn[to] = true
		case EdgeCreation:
			createOut[from] = append(createOut[from], to)
			hasIn[to] = true
		case EdgeJoin:
			// join edges do not affect placement
		}
	}
	// Deterministic child ordering: by target node ID (creation order).
	for _, m := range []map[NodeID][]NodeID{contOut, createOut} {
		for k := range m {
			kids := m[k]
			sort.Slice(kids, func(i, j int) bool { return kids[i] < kids[j] })
		}
	}

	nextCol := 0
	visited := make([]bool, g.NumNodes())

	// layoutChain places the continuation chain rooted at n into a fresh
	// column starting at y, recursing into children to the right.
	var layoutChain func(n NodeID, y float64)
	layoutChain = func(n NodeID, y float64) {
		col := nextCol
		nextCol++
		x := float64(col) * colWidth
		for {
			if visited[n] {
				return
			}
			visited[n] = true
			s.geoX[n], s.geoY[n] = x, y
			y += s.geoH[n] + rowGap

			childY := s.geoY[n] + s.geoH[n] + rowGap
			for _, child := range createOut[n] {
				if !visited[child] {
					layoutChain(child, childY)
				}
			}
			succ := contOut[n]
			if len(succ) == 0 {
				return
			}
			// First successor continues the column; extra continuation
			// targets (reduced book-keeping fan-out) become side columns.
			for _, extra := range succ[1:] {
				if !visited[extra] {
					layoutChain(extra, childY)
				}
			}
			n = succ[0]
		}
	}

	// Roots: nodes without incoming placement edges, in ID order.
	for i := range visited {
		if !hasIn[i] && !visited[i] {
			layoutChain(NodeID(i), 0)
		}
	}
	// Any leftovers (shouldn't happen in well-formed graphs).
	for i := range visited {
		if !visited[i] {
			layoutChain(NodeID(i), 0)
		}
	}
}

// heightScale returns cycles-per-point so that the median grain renders at
// a readable height.
func (g *Graph) heightScale() float64 {
	var weights []float64
	for n := 0; n < g.NumNodes(); n++ {
		k := NodeKind(g.kind[n])
		if (k == NodeFragment || k == NodeChunk) && g.weight[n] > 0 {
			weights = append(weights, float64(g.weight[n]))
		}
	}
	if len(weights) == 0 {
		return 1
	}
	sort.Float64s(weights)
	median := weights[len(weights)/2]
	scale := median / 40.0 // median grain ≈ 40pt tall
	if scale < 1 {
		scale = 1
	}
	return scale
}
