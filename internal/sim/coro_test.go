package sim

import (
	"math/rand/v2"
	"runtime"
	"testing"
	"time"
)

func TestCoroRunsToCompletion(t *testing.T) {
	p := NewPool()
	defer p.Close()
	var steps []int
	c := newCoro(p, func(c *Coro) {
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
	if !c.done {
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
	p := NewPool()
	defer p.Close()
	ran := false
	c := newCoro(p, func(c *Coro) { ran = true })
	if st := c.Resume(); st != Done {
		t.Fatalf("resume status = %v, want Done", st)
	}
	if !ran {
		t.Fatal("body did not run")
	}
}

func TestResumeAfterDonePanics(t *testing.T) {
	p := NewPool()
	defer p.Close()
	c := newCoro(p, func(c *Coro) {})
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
	p := NewPool()
	for i := 0; i < 100; i++ {
		c := newCoro(p, func(c *Coro) { t.Error("body must not run") })
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
	p := NewPool()
	unwound := 0
	for i := 0; i < 100; i++ {
		c := newCoro(p, func(c *Coro) {
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
	p := NewPool()
	defer p.Close()
	c := newCoro(p, func(c *Coro) {})
	c.Resume()
	c.Kill() // must not panic or hang
	if !c.done {
		t.Fatal("Kill of a Done coroutine changed its state")
	}
}

func TestResumeAfterKillPanics(t *testing.T) {
	p := NewPool()
	defer p.Close()
	c := newCoro(p, func(c *Coro) { c.Park() })
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
	p := NewPool()
	defer p.Close()
	type boom struct{ n int }
	c := newCoro(p, func(c *Coro) {
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
	if !c.done {
		t.Fatal("panicked coroutine not marked Done")
	}
	next := newCoro(p, func(c *Coro) { c.Park() })
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
	p := NewPool()
	defer p.Close()
	var deep func(n int) int
	deep = func(n int) int {
		var pad [64]byte
		if n == 0 {
			return int(pad[0])
		}
		return deep(n-1) + int(pad[n%64])
	}
	a := newCoro(p, func(c *Coro) {
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
		b := newCoro(p, func(c *Coro) { c.Park() })
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

// TestCarriersBuiltAtPeak: a pool keeps every finished carrier, so it
// builds as many carriers as the most coroutines started and unfinished at
// once. More than 48 bodies park, then finish in waves from either end while
// new bodies start and park, and no carrier is built after the peak; Close
// ends them all.
func TestCarriersBuiltAtPeak(t *testing.T) {
	before := runtime.NumGoroutine()
	const peak = 100
	p := NewPool()
	built := map[*carrier]bool{}
	var parked []*Coro
	start := func() {
		c := newCoro(p, func(c *Coro) { c.Park() })
		if c.Resume() != Suspended {
			t.Fatal("coroutine did not park")
		}
		built[c.car] = true
		parked = append(parked, c)
	}
	finish := func(c *Coro) {
		if c.Resume() != Done {
			t.Fatal("coroutine did not finish")
		}
	}
	for i := 0; i < peak; i++ {
		start()
	}
	for wave := 0; wave < 6; wave++ {
		n := 20 + 10*wave
		for i := 0; i < n; i++ {
			if wave%2 == 0 {
				finish(parked[len(parked)-1])
				parked = parked[:len(parked)-1]
			} else {
				finish(parked[0])
				parked = parked[1:]
			}
		}
		for i := 0; i < n; i++ {
			start()
		}
		if len(built) != peak || len(p.busy)+len(p.idle) != peak {
			t.Fatalf("wave %d: %d carriers built, %d busy + %d idle; want %d", wave, len(built), len(p.busy), len(p.idle), peak)
		}
	}
	for _, c := range parked {
		finish(c)
	}
	if len(p.idle) != peak || len(p.busy) != 0 {
		t.Fatalf("%d idle / %d busy carriers, want %d / 0", len(p.idle), len(p.busy), peak)
	}
	waitForGoroutines(t, before+peak)
	p.Close()
	waitForGoroutines(t, before)
}

// TestCarriersMatchPeakLive: over a random interleaving of coroutines that
// start, park, resume and finish, nested resumes included, the carriers
// built equal the peak number of coroutines alive at once.
func TestCarriersMatchPeakLive(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 1))
		p := NewPool()
		built := map[*carrier]bool{}
		var parked []*Coro
		live, peak := 0, 0
		for step := 0; step < 2000; step++ {
			if len(parked) == 0 || rng.IntN(2) == 0 {
				// A body that parks a random number of times, sometimes
				// starting and finishing a nested coroutine first.
				parks, nest := rng.IntN(3), rng.IntN(4) == 0
				c := newCoro(p, func(c *Coro) {
					if nest {
						inner := newCoro(p, func(*Coro) {})
						inner.Resume()
					}
					for i := 0; i < parks; i++ {
						c.Park()
					}
				})
				live++
				if nest {
					peak = max(peak, live+1)
				}
				peak = max(peak, live)
				if c.Resume() == Done {
					live--
				} else {
					built[c.car] = true
					parked = append(parked, c)
				}
				continue
			}
			i := rng.IntN(len(parked))
			c := parked[i]
			built[c.car] = true
			if c.Resume() == Done {
				live--
				parked[i] = parked[len(parked)-1]
				parked = parked[:len(parked)-1]
			}
		}
		if got := len(p.busy) + len(p.idle); got != peak {
			t.Fatalf("seed %d: %d carriers built, peak %d coroutines alive", seed, got, peak)
		}
		p.Close()
	}
}

// TestInitReusesStorage: a coroutine Init on storage the caller owns, with
// a plain function and a pointer argument, allocates nothing once the pool
// has a carrier, and a finished coroutine can be Init again.
func TestInitReusesStorage(t *testing.T) {
	p := NewPool()
	defer p.Close()
	type body struct {
		coro  Coro
		steps int
	}
	run := func(arg any) {
		b := arg.(*body)
		b.steps++
		b.coro.Park()
		b.steps++
	}
	b := &body{}
	allocs := testing.AllocsPerRun(100, func() {
		p.Init(&b.coro, run, b)
		if b.coro.Resume() != Suspended || b.coro.Resume() != Done {
			t.Fatal("coroutine did not park once and finish")
		}
	})
	if allocs != 0 {
		t.Fatalf("Init + two Resumes allocate %.1f times, want 0", allocs)
	}
	if b.steps != 2*101 {
		t.Fatalf("body ran %d steps over 101 lives, want %d", b.steps, 2*101)
	}
	p.Init(&b.coro, run, b)
	b.coro.Resume()
	defer func() {
		if recover() == nil {
			t.Fatal("Init on a parked coroutine did not panic")
		}
		b.coro.Kill()
	}()
	p.Init(&b.coro, run, b)
}

// TestCloseKillsParked: Close unwinds coroutines still parked, as a run
// that stopped on a panic leaves them.
func TestCloseKillsParked(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool()
	unwound := 0
	for i := 0; i < 10; i++ {
		c := newCoro(p, func(c *Coro) {
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
	p := NewPool()
	defer p.Close()
	var order []string
	inner := newCoro(p, func(c *Coro) {
		order = append(order, "inner-a")
		c.Park()
		order = append(order, "inner-b")
	})
	outer := newCoro(p, func(c *Coro) {
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
}

// BenchmarkSwitch measures one park/resume round trip.
func BenchmarkSwitch(b *testing.B) {
	p := NewPool()
	defer p.Close()
	c := newCoro(p, func(c *Coro) {
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
// finishes — a task body's life — on a pool carrier, its storage reused.
func BenchmarkCoroLifetime(b *testing.B) {
	p := NewPool()
	defer p.Close()
	var c Coro
	run := func(arg any) { arg.(*Coro).Park() }
	b.ReportAllocs()
	for b.Loop() {
		p.Init(&c, run, &c)
		c.Resume()
		c.Resume()
	}
}

// newCoro starts a coroutine around a closure, handing fn the coroutine
// itself, as most tests want.
func newCoro(p *Pool, fn func(c *Coro)) *Coro {
	c := new(Coro)
	p.Init(c, func(arg any) { fn(arg.(*Coro)) }, c)
	return c
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
