package cache

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"graingraph/internal/machine"
)

// TestLineTableRulesOutOnlyMisses drives random streams shaped like the
// oracle's — every config, every page policy, Access, AccessRange and
// AccessStrided calls, reads and writes from cores on every socket, a
// Flush partway — one line at a time. Before each line's access it checks
// every set scan the line table lets the walk skip: where no private way
// holds the line, a full probe of the core's L1 and L2 must miss and yield
// the vacancy, and where the local L3 holds no way of it, so must the
// L3's. Every 64 calls, just before and after the Flush and at the end,
// the table's private-way counts and L3 masks must equal a recount over
// every set.
func TestLineTableRulesOutOnlyMisses(t *testing.T) {
	small := DefaultConfig()
	small.L1Size, small.L1Ways = 1<<10, 2
	small.L2Size, small.L2Ways = 4<<10, 4
	small.L3Size, small.L3Ways = 48<<10, 4
	unqueued := small
	unqueued.MemServiceCycles = 0
	configs := []struct {
		name string
		cfg  Config
		span int64
		ops  int
	}{
		{"default", DefaultConfig(), 12 << 20, 600},
		{"small", small, 512 << 10, 1500},
		{"unqueued", unqueued, 512 << 10, 600},
	}
	seeds := 2
	if testing.Short() {
		seeds = 1
	}
	for _, cc := range configs {
		for _, pol := range []machine.Policy{machine.FirstTouch, machine.RoundRobin, machine.Node0} {
			for seed := 0; seed < seeds; seed++ {
				t.Run(fmt.Sprintf("%s/%v/%d", cc.name, pol, seed), func(t *testing.T) {
					auditStream(t, cc.cfg, pol, uint64(seed), cc.span, cc.ops)
				})
			}
		}
	}
}

// auditStream runs one random stream through auditedAccess, and fails
// unless the table ruled out some probe at every level.
func auditStream(t *testing.T, cfg Config, pol machine.Policy, seed uint64, span int64, ops int) {
	topo := machine.Default48()
	mem := machine.NewMemory(topo, pol)
	h := New(cfg, topo, mem)
	defer h.Release()
	big, hot := mem.Alloc("big", span), mem.Alloc("hot", 16<<10)
	rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
	strides := []int64{8, 24, 64, 72, 192, 4096, -64, -8}
	var skipped [3]int
	now := uint64(0)
	for i := 0; i < ops; i++ {
		if i == ops/2 {
			checkRecount(t, h, "before the Flush")
			h.Flush()
			checkRecount(t, h, "after the Flush")
		}
		p := h.pathOf(rng.IntN(topo.NumCores()))
		write := rng.IntN(3) == 0
		r := big
		if rng.IntN(3) == 0 {
			r = hot
		}
		access := func(line int64, streamed bool, at uint64) uint64 {
			return auditedAccess(t, h, &p, line, write, at, streamed, &skipped)
		}
		var lat uint64
		switch rng.IntN(3) {
		case 0:
			lat = access((r.Base+rng.Int64N(r.Size))/cfg.LineSize, false, now)
		case 1: // AccessRange, line by line
			off := rng.Int64N(r.Size)
			length := rng.Int64N(min(r.Size-off, 256<<10) + 1)
			if length > 0 {
				first, last := (r.Base+off)/cfg.LineSize, (r.Base+off+length-1)/cfg.LineSize
				for line := first; line <= last; line++ {
					lat += access(line, line != first, now+lat)
				}
			}
		default: // AccessStrided, access by access
			stride := strides[rng.IntN(len(strides))]
			count := 1 + rng.IntN(300)
			reach := int64(count-1) * stride
			if reach < 0 {
				reach = -reach
			}
			if reach >= r.Size {
				count, reach = 1, 0
			}
			addr := r.Base + rng.Int64N(r.Size-reach)
			if stride < 0 {
				addr += reach
			}
			sequential := stride > 0 && stride <= cfg.LineSize
			for j := 0; j < count; j++ {
				lat += access((addr+int64(j)*stride)/cfg.LineSize, sequential && j != 0, now+lat)
			}
		}
		if i%64 == 63 {
			checkRecount(t, h, fmt.Sprintf("after call %d", i))
		}
		now += lat + uint64(rng.IntN(1000))
	}
	checkRecount(t, h, "at the end")
	for lvl, n := range skipped {
		if n == 0 {
			t.Errorf("the line table ruled out no L%d probe: the stream does not exercise it", lvl+1)
		}
	}
}

// auditedAccess is h.access preceded by a check of each probe the line
// table rules out for this access: a full probe of that level must miss
// and yield the same position as its vacancy. skipped counts the ruled-out
// probes per level.
func auditedAccess(t *testing.T, h *Hierarchy, p *path, line int64, write bool, now uint64, streamed bool, skipped *[3]int) uint64 {
	var st lineState
	if line < int64(len(h.lines)) {
		st = h.lines[line]
	}
	check := func(name string, l *level) {
		hit, pos := l.probe(line, st.version)
		if v := l.vacancy(line); hit || pos != v {
			t.Fatalf("line %d (%+v): the table rules %s out, but a full probe gives hit=%v at way %d, not a miss at the vacancy %d",
				line, st, name, hit, pos, v)
		}
	}
	if st.priv == 0 {
		check("core's L1", p.l1)
		check("core's L2", p.l2)
		skipped[0]++
		skipped[1]++
	}
	if st.l3any&(1<<p.socket) == 0 {
		check("local L3", p.l3)
		skipped[2]++
	}
	return h.access(p, line, write, now, streamed, nil)
}

// checkRecount fails t unless every line's private-way count, any-version
// L3 mask and current-version holder mask equal a recount over every set
// of h, and the table is zero past its length.
func checkRecount(t *testing.T, h *Hierarchy, when string) {
	t.Helper()
	want := make([]lineState, len(h.lines))
	for i := range want {
		want[i].version = h.lines[i].version
	}
	line := func(e uint64) *lineState {
		l := int64(e >> 32)
		if l >= int64(len(want)) {
			t.Fatalf("%s: a cache holds line %d, past the table's length %d", when, l, len(want))
		}
		return &want[l]
	}
	for c := range h.l1 {
		for _, l := range []*level{h.l1[c], h.l2[c]} {
			for _, e := range l.ent {
				if e != invalid {
					line(e).priv++
				}
			}
		}
	}
	for s, l := range h.l3 {
		for _, e := range l.ent {
			if e == invalid {
				continue
			}
			st := line(e)
			st.l3any |= 1 << s
			if uint32(e) == st.version {
				st.holders |= 1 << s
			}
		}
	}
	for i, st := range h.lines {
		if st != want[i] {
			t.Fatalf("%s: line %d has %+v in the table, %+v by recount", when, i, st, want[i])
		}
	}
	for i, st := range h.lines[len(h.lines):cap(h.lines)] {
		if st != (lineState{}) {
			t.Fatalf("%s: line %d, past the table's length, is %+v, not zero", when, len(h.lines)+i, st)
		}
	}
}
