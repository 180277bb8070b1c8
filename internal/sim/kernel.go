// Package sim is a deterministic discrete-event simulator for asynchronous
// message-passing systems. It provides the event kernel, a network model
// with configurable per-message delays, FIFO channels, message accounting,
// and crash injection, plus a Cluster driver that runs any
// mutex.Algorithm under a workload while checking safety and liveness
// invariants and collecting the metrics reported in the paper
// (messages per CS execution by type, synchronization delay, response time,
// throughput).
//
// Simulations are fully deterministic for a given seed: events at equal
// times are ordered by insertion sequence, and all randomness flows from a
// single seeded source.
package sim

import "dqmx/internal/mutex"

// Time is simulated time in abstract units. Experiments conventionally use
// 1000 units for the mean message delay T.
type Time int64

// event is one scheduled occurrence: a callback, or — the bulk of a run — the
// arrival of an envelope, which names its handler and the slab slot holding
// the envelope instead of paying for a closure per message.
type event struct {
	at   Time
	seq  uint64               // tie-break: FIFO among simultaneous events
	fn   func()               // callback event; nil for an arrival
	to   func(mutex.Envelope) // arrival: the handler
	slot int                  // arrival: index of the envelope in Kernel.slab
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Kernel is the discrete-event engine. The zero value is ready to use.
type Kernel struct {
	now    Time
	seq    uint64
	events []event // min-heap ordered by (at, seq)
	steps  uint64

	// Envelopes in flight. A slot belongs to exactly one scheduled arrival
	// and returns to the free list when that arrival fires: kernel events
	// have one owner and one consumer, which is what makes reusing the slot
	// safe where reusing a message would not be. The handler receives a copy.
	slab []mutex.Envelope
	free []int
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Steps returns the number of events executed so far.
func (k *Kernel) Steps() uint64 { return k.steps }

// Pending returns the number of scheduled events not yet executed.
func (k *Kernel) Pending() int { return len(k.events) }

// At schedules fn to run at absolute time t. Scheduling in the past runs at
// the current time (events never travel backwards).
func (k *Kernel) At(t Time, fn func()) { k.push(event{at: t, fn: fn}) }

// After schedules fn to run d time units from now.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// DeliverAt schedules to(env) at absolute time t. It orders with At's events
// exactly as At(t, func() { to(env) }) would.
func (k *Kernel) DeliverAt(t Time, env mutex.Envelope, to func(mutex.Envelope)) {
	slot := len(k.slab)
	if n := len(k.free); n > 0 {
		slot = k.free[n-1]
		k.free = k.free[:n-1]
		k.slab[slot] = env
	} else {
		k.slab = append(k.slab, env)
	}
	k.push(event{at: t, to: to, slot: slot})
}

// push stamps the event's sequence number and sifts it into the heap.
func (k *Kernel) push(e event) {
	if e.at < k.now {
		e.at = k.now
	}
	k.seq++
	e.seq = k.seq
	h := append(k.events, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	k.events = h
}

// pop removes and returns the earliest event; the heap must not be empty.
func (k *Kernel) pop() event {
	h := k.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop the callback reference
	h = h[:n]
	i := 0
	for {
		min := i
		if l := 2*i + 1; l < n && h[l].before(&h[min]) {
			min = l
		}
		if r := 2*i + 2; r < n && h[r].before(&h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	k.events = h
	return top
}

// Step executes the next event. It reports false when no events remain.
func (k *Kernel) Step() bool {
	if len(k.events) == 0 {
		return false
	}
	e := k.pop()
	k.now = e.at
	k.steps++
	if e.fn != nil {
		e.fn()
		return true
	}
	env := k.slab[e.slot]
	k.slab[e.slot] = mutex.Envelope{} // a free slot pins no message
	k.free = append(k.free, e.slot)
	e.to(env)
	return true
}

// Run executes events until the queue drains or maxSteps events have run
// (maxSteps <= 0 means no limit). It returns the number of events executed
// by this call.
func (k *Kernel) Run(maxSteps uint64) uint64 {
	var n uint64
	for maxSteps <= 0 || n < maxSteps {
		if !k.Step() {
			break
		}
		n++
	}
	return n
}

// RunUntil executes events with timestamps <= deadline.
func (k *Kernel) RunUntil(deadline Time) {
	for len(k.events) > 0 && k.events[0].at <= deadline {
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}
