// Package sched provides the scheduler queue of the simulated runtime
// (internal/rts): Deque, a plain double-ended queue. The simulator is
// logically single-threaded, so no synchronization is needed. A
// work-stealing worker pushes and pops at the bottom (LIFO) and thieves
// steal from the top (FIFO), matching the Chase-Lev discipline the paper's
// MIR runtime uses; the central-queue scheduler, the paper's "central
// queue-based task scheduler" baseline whose scatter behaviour Figure 11d
// demonstrates, uses one Deque FIFO only (PushBottom, PeekTop, StealTop).
package sched

// Deque is an unsynchronized double-ended queue for the simulated runtime.
// The zero value is ready to use.
type Deque[T any] struct {
	items []T
}

// PushBottom adds an item at the owner's end.
func (d *Deque[T]) PushBottom(v T) { d.items = append(d.items, v) }

// PopBottom removes the most recently pushed item (owner side, LIFO).
func (d *Deque[T]) PopBottom() (T, bool) {
	var zero T
	n := len(d.items)
	if n == 0 {
		return zero, false
	}
	v := d.items[n-1]
	d.items[n-1] = zero
	d.items = d.items[:n-1]
	return v, true
}

// StealTop removes the oldest item (thief side, FIFO).
func (d *Deque[T]) StealTop() (T, bool) {
	var zero T
	if len(d.items) == 0 {
		return zero, false
	}
	v := d.items[0]
	d.items[0] = zero
	d.items = d.items[1:]
	return v, true
}

// PeekBottom returns the owner-side item without removing it.
func (d *Deque[T]) PeekBottom() (T, bool) {
	var zero T
	if len(d.items) == 0 {
		return zero, false
	}
	return d.items[len(d.items)-1], true
}

// PeekTop returns the thief-side item without removing it.
func (d *Deque[T]) PeekTop() (T, bool) {
	var zero T
	if len(d.items) == 0 {
		return zero, false
	}
	return d.items[0], true
}

// Len returns the number of queued items.
func (d *Deque[T]) Len() int { return len(d.items) }
