// Package sim provides the primitives the simulated runtime is built on:
// virtual time and cooperatively scheduled coroutines.
//
// Task bodies are ordinary Go closures, but the simulator must suspend them
// at synchronization points (taskwait) and resume them later in virtual-time
// order. A body therefore runs as a coroutine on a carrier: a goroutine
// driven through iter.Pull, so that resuming and parking are direct runtime
// coroutine switches and exactly one goroutine — the engine's or one
// carrier's — runs at any moment. A Pool keeps finished carriers and hands
// them to the next body, so a carrier's grown stack is reused rather than
// grown again for every task, and a run builds no more carriers than it has
// coroutines started and unfinished at once. All parallelism in the
// simulation is virtual.
package sim

import "iter"

// Time is virtual time in cycles.
type Time = uint64

// Status describes how a coroutine returned control to its resumer.
type Status int

const (
	// Suspended means the coroutine called Park and can be resumed.
	Suspended Status = iota
	// Done means the coroutine's function returned; it must not be resumed.
	Done
)

// killed is the sentinel panic value used to unwind an abandoned coroutine.
type killed struct{}

// Pool runs coroutines on reusable carriers. It keeps every finished
// carrier for later coroutines, so the carriers it builds are as many as its
// peak number of coroutines started and not finished. A Pool is not safe for
// concurrent use: one simulated run owns it, and Close ends every carrier it
// started, parked coroutines included.
type Pool struct {
	idle []*carrier
	// busy holds the carriers running a coroutine that has not finished,
	// each at its slot, so that Close can unwind them.
	busy []*carrier
}

// carrier is one goroutine that runs coroutine bodies in turn.
type carrier struct {
	next  func() (Status, bool)
	stop  func()
	yield func(Status) bool
	job   *Coro // the coroutine the carrier runs next or is running
	slot  int   // index in Pool.busy while running a coroutine
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Coro is a one-shot coroutine. The engine drives it with Resume; the
// coroutine's function yields with Park. A Coro must be finished (run to
// Done), Killed, or left to its Pool's Close. Its storage belongs to the
// caller, who may embed it in a larger value and Init it again once it is
// finished.
type Coro struct {
	pool     *Pool
	run      func(arg any)
	arg      any
	car      *carrier // nil until the first Resume and after Done or Kill
	done     bool
	dead     bool
	panicked bool
	panicVal any
}

// Init readies c to run run(arg) on one of p's carriers, discarding what c
// held before; c must be new, finished or killed. Passing a plain function
// and a pointer argument allocates nothing. The coroutine takes a carrier
// at its first Resume, so one killed before it starts costs no goroutine.
func (p *Pool) Init(c *Coro, run func(arg any), arg any) {
	if c.car != nil {
		panic("sim: Init on a coroutine that has started and not finished")
	}
	*c = Coro{pool: p, run: run, arg: arg}
}

// run is a carrier's body: run each coroutine it is handed to completion,
// report Done, and wait for the next, until it is stopped. A carrier whose
// coroutine is killed exits with it.
func (car *carrier) run(yield func(Status) bool) {
	car.yield = yield
	for {
		if car.job.runBody() {
			return // killed: the carrier was stopped while parked
		}
		if !yield(Done) {
			return // stopped while idle
		}
	}
}

// runBody runs the coroutine's function and reports whether Kill unwound
// it. Any other panic is recorded for Resume to raise in the resumer, so
// the carrier survives it.
func (c *Coro) runBody() (wasKilled bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killed); ok {
				wasKilled = true
				return
			}
			c.panicked, c.panicVal = true, r
		}
	}()
	c.run(c.arg)
	return false
}

// Resume transfers control to the coroutine until it parks or finishes and
// reports which happened. Resuming a Done or Killed coroutine panics. A
// panic in the coroutine's function propagates to the caller of Resume and
// leaves the coroutine finished.
func (c *Coro) Resume() Status {
	if c.done || c.dead {
		panic("sim: Resume on finished or killed coroutine")
	}
	if c.car == nil {
		c.car = c.pool.take(c)
	}
	car := c.car
	// A carrier stops only once its coroutine is done or dead, so next
	// always yields here.
	st, _ := car.next()
	if st == Done {
		c.done = true
		c.car = nil
		c.pool.release(car)
		if c.panicked {
			panic(c.panicVal)
		}
	}
	return st
}

// Park suspends the coroutine, returning control to the resumer. It must be
// called from inside the coroutine's function. If the coroutine is killed
// while parked, Park unwinds the function via panic(killed{}).
func (c *Coro) Park() {
	if !c.car.yield(Suspended) {
		panic(killed{})
	}
}

// Kill abandons a parked (or never-started) coroutine, unwinding its
// function so that its carrier exits. Killing a Done coroutine is a no-op;
// killing a running coroutine is impossible by construction (only one
// goroutine runs at a time).
func (c *Coro) Kill() {
	if c.done || c.dead {
		return
	}
	c.dead = true
	if car := c.car; car != nil {
		c.car = nil
		c.pool.unbusy(car)
		car.stop()
	}
}

// Close ends every carrier the pool started: idle carriers exit and parked
// coroutines are killed. The pool must not be used afterwards.
func (p *Pool) Close() {
	for _, car := range p.idle {
		car.stop()
	}
	p.idle = nil
	for len(p.busy) > 0 {
		car := p.busy[len(p.busy)-1]
		car.job.Kill()
	}
}

// take returns a carrier for c: an idle one, or a new goroutine.
func (p *Pool) take(c *Coro) *carrier {
	var car *carrier
	if n := len(p.idle); n > 0 {
		car = p.idle[n-1]
		p.idle = p.idle[:n-1]
	} else {
		car = &carrier{}
		car.next, car.stop = iter.Pull(iter.Seq[Status](car.run))
	}
	car.job = c
	car.slot = len(p.busy)
	p.busy = append(p.busy, car)
	return car
}

// release parks the carrier of a finished coroutine for the next one.
func (p *Pool) release(car *carrier) {
	p.unbusy(car)
	car.job = nil
	p.idle = append(p.idle, car)
}

// unbusy removes car from the busy set.
func (p *Pool) unbusy(car *carrier) {
	last := p.busy[len(p.busy)-1]
	p.busy[car.slot] = last
	last.slot = car.slot
	p.busy = p.busy[:len(p.busy)-1]
}

// MaxTime returns the larger of two times.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
