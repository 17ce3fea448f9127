package machine

import "testing"

func TestTopologyShape(t *testing.T) {
	topo := Default48()
	if got := topo.NumCores(); got != 48 {
		t.Fatalf("NumCores = %d, want 48", got)
	}
	if got := topo.NumSockets(); got != 4 {
		t.Fatalf("NumSockets = %d, want 4", got)
	}
	if got := topo.coresPerSocket; got != 12 {
		t.Fatalf("cores per socket = %d, want 12", got)
	}
}

func TestSocketAssignment(t *testing.T) {
	topo := Default48()
	cases := []struct{ core, socket int }{
		{0, 0}, {11, 0}, {12, 1}, {23, 1}, {24, 2}, {47, 3},
	}
	for _, c := range cases {
		if got := topo.Socket(c.core); got != c.socket {
			t.Errorf("Socket(%d) = %d, want %d", c.core, got, c.socket)
		}
	}
}

func TestSocketPanicsOutOfRange(t *testing.T) {
	topo := Default48()
	for _, core := range []int{-1, 48, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Socket(%d) did not panic", core)
				}
			}()
			topo.Socket(core)
		}()
	}
}

func TestNodeDistanceProperties(t *testing.T) {
	topo := Default48()
	for i := 0; i < 4; i++ {
		if got := topo.NodeDistance(i, i); got != 10 {
			t.Errorf("NodeDistance(%d,%d) = %d, want 10", i, i, got)
		}
		for j := 0; j < 4; j++ {
			if topo.NodeDistance(i, j) != topo.NodeDistance(j, i) {
				t.Errorf("distance not symmetric at (%d,%d)", i, j)
			}
			if i != j && topo.NodeDistance(i, j) <= 10 {
				t.Errorf("remote distance (%d,%d) = %d, want > 10", i, j, topo.NodeDistance(i, j))
			}
		}
	}
	// Ring: sockets 0 and 2 are two hops apart, 0 and 1 one hop.
	if topo.NodeDistance(0, 2) <= topo.NodeDistance(0, 1) {
		t.Errorf("two-hop distance %d not greater than one-hop %d",
			topo.NodeDistance(0, 2), topo.NodeDistance(0, 1))
	}
}

func TestAllocAlignmentAndDisjointness(t *testing.T) {
	mem := NewMemory(Default48(), FirstTouch)
	a := mem.Alloc("a", 100)
	b := mem.Alloc("b", PageSize+1)
	c := mem.Alloc("c", 1)
	regions := []*Region{a, b, c}
	for _, r := range regions {
		if r.Base%PageSize != 0 {
			t.Errorf("region %s base %d not page aligned", r.Name, r.Base)
		}
	}
	for i := 0; i < len(regions); i++ {
		for j := i + 1; j < len(regions); j++ {
			ri, rj := regions[i], regions[j]
			if ri.Base < rj.Base+rj.Size && rj.Base < ri.Base+ri.Size {
				t.Errorf("regions %s and %s overlap", ri.Name, rj.Name)
			}
		}
	}
}

func TestAllocPanicsOnNonPositive(t *testing.T) {
	mem := NewMemory(Default48(), FirstTouch)
	defer func() {
		if recover() == nil {
			t.Error("Alloc(0) did not panic")
		}
	}()
	mem.Alloc("zero", 0)
}

func TestFirstTouchPlacement(t *testing.T) {
	topo := Default48()
	mem := NewMemory(topo, FirstTouch)
	r := mem.Alloc("data", 10*PageSize)
	// Core 13 (socket 1) touches page 0; the page must land on node 1 and
	// stay there even when another core touches it later.
	if got := mem.NodeOf(r.Base, 13); got != 1 {
		t.Fatalf("first touch by core 13: node = %d, want 1", got)
	}
	if got := mem.NodeOf(r.Base, 40); got != 1 {
		t.Fatalf("subsequent touch: node = %d, want sticky 1", got)
	}
	// A different page first touched by core 40 (socket 3) goes to node 3.
	if got := mem.NodeOf(r.Base+PageSize, 40); got != 3 {
		t.Fatalf("first touch by core 40: node = %d, want 3", got)
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	topo := Default48()
	mem := NewMemory(topo, RoundRobin)
	r := mem.Alloc("data", 8*PageSize)
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i, w := range want {
		if got := mem.NodeOf(r.Base+int64(i)*PageSize, 5); got != w {
			t.Errorf("page %d: node = %d, want %d", i, got, w)
		}
	}
}

func TestNode0Placement(t *testing.T) {
	mem := NewMemory(Default48(), Node0)
	r := mem.Alloc("data", 4*PageSize)
	for i := int64(0); i < 4; i++ {
		if got := mem.NodeOf(r.Base+i*PageSize, 47); got != 0 {
			t.Errorf("page %d: node = %d, want 0", i, got)
		}
	}
}

func TestMemoryReset(t *testing.T) {
	mem := NewMemory(Default48(), FirstTouch)
	r := mem.Alloc("data", PageSize)
	if got := mem.NodeOf(r.Base, 13); got != 1 {
		t.Fatalf("pre-reset node = %d, want 1", got)
	}
	mem.Reset()
	if got := mem.NodeOf(r.Base, 40); got != 3 {
		t.Fatalf("post-reset node = %d, want fresh first-touch 3", got)
	}
}

func TestPolicyString(t *testing.T) {
	if FirstTouch.String() != "first-touch" || RoundRobin.String() != "round-robin" || Node0.String() != "node0" {
		t.Error("unexpected policy names")
	}
	if Policy(99).String() == "" {
		t.Error("unknown policy should still stringify")
	}
}
