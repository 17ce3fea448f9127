package sim

import (
	"runtime"
	"testing"
	"time"
)

func TestCoroRunsToCompletion(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	var steps []int
	c := p.New(func(c *Coro) {
		steps = append(steps, 1)
		c.Park()
		steps = append(steps, 2)
		c.Park()
		steps = append(steps, 3)
	})
	if st := c.Resume(); st != Suspended {
		t.Fatalf("first resume status = %v, want Suspended", st)
	}
	if st := c.Resume(); st != Suspended {
		t.Fatalf("second resume status = %v, want Suspended", st)
	}
	if st := c.Resume(); st != Done {
		t.Fatalf("third resume status = %v, want Done", st)
	}
	if !c.Done() {
		t.Fatal("coroutine not marked Done")
	}
	want := []int{1, 2, 3}
	for i, w := range want {
		if steps[i] != w {
			t.Fatalf("steps = %v, want %v", steps, want)
		}
	}
}

func TestCoroNoParkJustDone(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	ran := false
	c := p.New(func(c *Coro) { ran = true })
	if st := c.Resume(); st != Done {
		t.Fatalf("resume status = %v, want Done", st)
	}
	if !ran {
		t.Fatal("body did not run")
	}
}

func TestResumeAfterDonePanics(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	c := p.New(func(c *Coro) {})
	c.Resume()
	defer func() {
		if recover() == nil {
			t.Fatal("Resume after Done did not panic")
		}
	}()
	c.Resume()
}

func TestKillUnstartedCoroDoesNotLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(4)
	for i := 0; i < 100; i++ {
		c := p.New(func(c *Coro) { t.Error("body must not run") })
		c.Kill()
		if !c.dead || c.car != nil {
			t.Fatal("killed unstarted coroutine holds a carrier")
		}
	}
	if len(p.busy) != 0 || len(p.idle) != 0 {
		t.Fatalf("pool has %d busy / %d idle carriers; an unstarted coroutine needs none", len(p.busy), len(p.idle))
	}
	waitForGoroutines(t, before)
}

func TestKillParkedCoroDoesNotLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(4)
	unwound := 0
	for i := 0; i < 100; i++ {
		c := p.New(func(c *Coro) {
			defer func() { unwound++ }()
			c.Park()
			t.Error("body must not run past park after kill")
		})
		if st := c.Resume(); st != Suspended {
			t.Fatalf("resume status = %v", st)
		}
		c.Kill()
	}
	if unwound != 100 {
		t.Fatalf("%d of 100 killed bodies ran their deferred calls", unwound)
	}
	if len(p.busy) != 0 || len(p.idle) != 0 {
		t.Fatalf("pool has %d busy / %d idle carriers after killing every coroutine", len(p.busy), len(p.idle))
	}
	waitForGoroutines(t, before)
}

func TestKillDoneCoroIsNoop(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	c := p.New(func(c *Coro) {})
	c.Resume()
	c.Kill() // must not panic or hang
	if !c.Done() {
		t.Fatal("Kill of a Done coroutine changed its state")
	}
}

func TestResumeAfterKillPanics(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	c := p.New(func(c *Coro) { c.Park() })
	c.Resume()
	c.Kill()
	defer func() {
		if recover() == nil {
			t.Fatal("Resume after Kill did not panic")
		}
	}()
	c.Resume()
}

// TestBodyPanicReachesResumer: a panic in a coroutine's function is raised
// in the caller of Resume with its original value, the coroutine counts as
// finished, and its carrier survives to run the next coroutine.
func TestBodyPanicReachesResumer(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	type boom struct{ n int }
	c := p.New(func(c *Coro) {
		c.Park()
		panic(boom{7})
	})
	c.Resume()
	car := c.car
	func() {
		defer func() {
			if r := recover(); r != (boom{7}) {
				t.Fatalf("recovered %v, want boom{7}", r)
			}
		}()
		c.Resume()
		t.Fatal("Resume returned after the body panicked")
	}()
	if !c.Done() {
		t.Fatal("panicked coroutine not marked Done")
	}
	next := p.New(func(c *Coro) { c.Park() })
	if next.Resume(); next.car != car {
		t.Fatal("the panicked coroutine's carrier was not reused")
	}
	if next.Resume() != Done {
		t.Fatal("coroutine on the reused carrier did not finish")
	}
}

// TestCarrierReusedAfterDone: a finished coroutine's carrier, and so its
// goroutine and grown stack, runs the next coroutine.
func TestCarrierReusedAfterDone(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var deep func(n int) int
	deep = func(n int) int {
		var pad [64]byte
		if n == 0 {
			return int(pad[0])
		}
		return deep(n-1) + int(pad[n%64])
	}
	a := p.New(func(c *Coro) {
		deep(2000) // grow the carrier's stack
		c.Park()
	})
	a.Resume()
	car := a.car
	if a.Resume() != Done {
		t.Fatal("first coroutine did not finish")
	}
	if len(p.idle) != 1 || p.idle[0] != car {
		t.Fatalf("finished carrier not kept idle: idle = %v", p.idle)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		b := p.New(func(c *Coro) { c.Park() })
		b.Resume()
		if b.car != car {
			t.Fatalf("coroutine %d got a new carrier instead of the idle one", i)
		}
		if b.Resume() != Done {
			t.Fatalf("coroutine %d did not finish", i)
		}
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("goroutines went from %d to %d while reusing one carrier", before, n)
	}
}

// TestIdleCarriersBounded: once maxIdle carriers are idle, a carrier whose
// coroutine finishes exits instead of joining them, and Close ends the rest.
func TestIdleCarriersBounded(t *testing.T) {
	before := runtime.NumGoroutine()
	const maxIdle, live = 3, 20
	p := NewPool(maxIdle)
	cs := make([]*Coro, live)
	for i := range cs {
		cs[i] = p.New(func(c *Coro) { c.Park() })
		cs[i].Resume()
	}
	if len(p.busy) != live {
		t.Fatalf("%d busy carriers, want %d", len(p.busy), live)
	}
	for _, c := range cs {
		if c.Resume() != Done {
			t.Fatal("coroutine did not finish")
		}
		if len(p.idle) > maxIdle {
			t.Fatalf("%d idle carriers, bound is %d", len(p.idle), maxIdle)
		}
	}
	if len(p.idle) != maxIdle || len(p.busy) != 0 {
		t.Fatalf("%d idle / %d busy carriers, want %d / 0", len(p.idle), len(p.busy), maxIdle)
	}
	waitForGoroutines(t, before+maxIdle)
	p.Close()
	waitForGoroutines(t, before)
}

// TestCloseKillsParked: Close unwinds coroutines still parked, as a run
// that stopped on a panic leaves them.
func TestCloseKillsParked(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(2)
	unwound := 0
	for i := 0; i < 10; i++ {
		c := p.New(func(c *Coro) {
			defer func() { unwound++ }()
			c.Park()
		})
		c.Resume()
	}
	p.Close()
	if unwound != 10 {
		t.Fatalf("Close unwound %d of 10 parked coroutines", unwound)
	}
	waitForGoroutines(t, before)
}

func TestNestedCoros(t *testing.T) {
	// An outer coroutine resuming an inner one, as the engine does when a
	// worker switches between tasks.
	p := NewPool(2)
	defer p.Close()
	var order []string
	inner := p.New(func(c *Coro) {
		order = append(order, "inner-a")
		c.Park()
		order = append(order, "inner-b")
	})
	outer := p.New(func(c *Coro) {
		order = append(order, "outer-a")
		inner.Resume()
		order = append(order, "outer-b")
		c.Park()
		inner.Resume()
		order = append(order, "outer-c")
	})
	outer.Resume()
	outer.Resume()
	want := []string{"outer-a", "inner-a", "outer-b", "inner-b", "outer-c"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMinMaxTime(t *testing.T) {
	if MaxTime(3, 5) != 5 || MaxTime(5, 3) != 5 || MaxTime(4, 4) != 4 {
		t.Error("MaxTime wrong")
	}
	if MinTime(3, 5) != 3 || MinTime(5, 3) != 3 || MinTime(4, 4) != 4 {
		t.Error("MinTime wrong")
	}
}

// BenchmarkSwitch measures one park/resume round trip.
func BenchmarkSwitch(b *testing.B) {
	p := NewPool(1)
	defer p.Close()
	c := p.New(func(c *Coro) {
		for {
			c.Park()
		}
	})
	b.ReportAllocs()
	for b.Loop() {
		c.Resume()
	}
	c.Kill()
}

// BenchmarkCoroLifetime measures a coroutine that starts, parks once and
// finishes — a task body's life — on a pool carrier.
func BenchmarkCoroLifetime(b *testing.B) {
	p := NewPool(1)
	defer p.Close()
	b.ReportAllocs()
	for b.Loop() {
		c := p.New(func(c *Coro) { c.Park() })
		c.Resume()
		c.Resume()
	}
}

func waitForGoroutines(t *testing.T, target int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.Gosched()
		if runtime.NumGoroutine() <= target {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("goroutines did not drain: have %d, want <= %d", runtime.NumGoroutine(), target)
}
