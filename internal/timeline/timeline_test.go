package timeline

import (
	"bytes"
	"strings"
	"testing"

	"graingraph/internal/profile"
	"graingraph/internal/rts"
)

func TestFromTraceAccounting(t *testing.T) {
	tr := rts.Run(rts.Config{Program: "tl", Cores: 2, Seed: 1}, func(c rts.Ctx) {
		c.Spawn(profile.Loc("a.go", 1, "w"), func(c rts.Ctx) { c.Compute(100_000) })
		c.Spawn(profile.Loc("a.go", 2, "w"), func(c rts.Ctx) { c.Compute(100_000) })
		c.TaskWait()
	})
	v := FromTrace(tr)
	if len(v.Rows) != 2 {
		t.Fatalf("rows = %d", len(v.Rows))
	}
	for _, r := range v.Rows {
		if r.Busy+r.Overhead+r.Idle != v.Makespan {
			t.Errorf("worker %d: busy+overhead+idle = %d, makespan %d",
				r.Worker, r.Busy+r.Overhead+r.Idle, v.Makespan)
		}
	}
}

func TestLoadImbalanceDetection(t *testing.T) {
	// One huge task + tiny ones on 4 cores: classic imbalance.
	tr := rts.Run(rts.Config{Program: "tl", Cores: 4, Seed: 1}, func(c rts.Ctx) {
		c.Spawn(profile.Loc("a.go", 1, "whale"), func(c rts.Ctx) { c.Compute(10_000_000) })
		for i := 0; i < 3; i++ {
			c.Spawn(profile.Loc("a.go", 2, "minnow"), func(c rts.Ctx) { c.Compute(1000) })
		}
		c.TaskWait()
	})
	v := FromTrace(tr)
	if li := v.LoadImbalance(); li < 2 {
		t.Errorf("load imbalance = %.2f, want >> 1", li)
	}

	// Balanced work: imbalance near 1.
	tr2 := rts.Run(rts.Config{Program: "tl", Cores: 4, Seed: 1}, func(c rts.Ctx) {
		for i := 0; i < 16; i++ {
			c.Spawn(profile.Loc("a.go", 1, "even"), func(c rts.Ctx) { c.Compute(500_000) })
		}
		c.TaskWait()
	})
	v2 := FromTrace(tr2)
	if li := v2.LoadImbalance(); li > 1.5 {
		t.Errorf("balanced load imbalance = %.2f, want ~1", li)
	}
}

func TestRender(t *testing.T) {
	tr := rts.Run(rts.Config{Program: "tl", Cores: 2, Seed: 1}, func(c rts.Ctx) {
		c.Spawn(profile.Loc("a.go", 1, "w"), func(c rts.Ctx) { c.Compute(50_000) })
		c.TaskWait()
	})
	var buf bytes.Buffer
	if err := FromTrace(tr).Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "T00") || !strings.Contains(out, "T01") {
		t.Errorf("render missing thread rows:\n%s", out)
	}
	if !strings.Contains(out, "load imbalance") {
		t.Error("render missing imbalance summary")
	}
}

func TestEmptyView(t *testing.T) {
	v := &View{}
	if v.LoadImbalance() != 0 {
		t.Error("empty view imbalance should be 0")
	}
	r := ThreadRow{}
	if r.BusyFraction(0) != 0 {
		t.Error("zero makespan busy fraction should be 0")
	}
}
