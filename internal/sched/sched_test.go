package sched

import (
	"testing"
	"testing/quick"
)

func TestDequeLIFOOwner(t *testing.T) {
	var d Deque[int]
	for i := 1; i <= 3; i++ {
		d.PushBottom(i)
	}
	for want := 3; want >= 1; want-- {
		v, ok := d.PopBottom()
		if !ok || v != want {
			t.Fatalf("PopBottom = %d,%v, want %d,true", v, ok, want)
		}
	}
	if _, ok := d.PopBottom(); ok {
		t.Fatal("PopBottom on empty deque succeeded")
	}
}

func TestDequeFIFOThief(t *testing.T) {
	var d Deque[int]
	for i := 1; i <= 3; i++ {
		d.PushBottom(i)
	}
	for want := 1; want <= 3; want++ {
		v, ok := d.StealTop()
		if !ok || v != want {
			t.Fatalf("StealTop = %d,%v, want %d,true", v, ok, want)
		}
	}
	if _, ok := d.StealTop(); ok {
		t.Fatal("StealTop on empty deque succeeded")
	}
}

func TestDequeMixedEnds(t *testing.T) {
	var d Deque[string]
	d.PushBottom("a")
	d.PushBottom("b")
	d.PushBottom("c")
	if v, _ := d.StealTop(); v != "a" {
		t.Fatalf("steal got %q, want a", v)
	}
	if v, _ := d.PopBottom(); v != "c" {
		t.Fatalf("pop got %q, want c", v)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
}

// Property: any interleaving of pushes, pops and steals keeps the multiset
// of extracted+remaining items equal to the pushed items, with pops LIFO and
// steals FIFO relative to remaining content.
func TestDequePermutationProperty(t *testing.T) {
	f := func(ops []bool, values []int16) bool {
		var d Deque[int16]
		var model []int16 // mirror slice: bottom at end, top at front
		vi := 0
		for _, op := range ops {
			switch {
			case op && vi < len(values):
				d.PushBottom(values[vi])
				model = append(model, values[vi])
				vi++
			case len(model) > 0 && len(model)%2 == 0:
				v, ok := d.PopBottom()
				if !ok || v != model[len(model)-1] {
					return false
				}
				model = model[:len(model)-1]
			case len(model) > 0:
				v, ok := d.StealTop()
				if !ok || v != model[0] {
					return false
				}
				model = model[1:]
			default:
				if _, ok := d.PopBottom(); ok {
					return false
				}
			}
		}
		return d.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDequePushPop(b *testing.B) {
	var d Deque[int]
	for i := 0; i < b.N; i++ {
		d.PushBottom(i)
		d.PopBottom()
	}
}
