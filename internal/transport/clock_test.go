package transport

// A manual clock.Clock for white-box timing tests: time stands still until
// the test advances it, and Advance fires the due timers one at a time in
// deadline order. Nothing sleeps, so backoff, ack grace and detector
// timeouts are asserted to the nanosecond, with no timing races.

import (
	"fmt"
	"sync"
	"time"

	"dqmx/internal/clock"
)

// manualClock moves only on Advance. After firing a channel timer, Advance
// waits until the goroutine that owns it has finished its reaction: it has
// taken the tick and either read C again (a loop back at its select — the
// runtime's loops read C on every pass) or stopped the timer (a one-shot
// wait). Timers armed by that reaction are then already in the queue, so
// the next one due fires next.
type manualClock struct {
	mu     sync.Mutex
	now    time.Time
	seq    uint64 // arming order: the tiebreak between equal deadlines
	timers map[*manualTimer]bool
	poke   chan struct{} // signalled on every timer call, for Advance's wait
}

func newManualClock() *manualClock {
	return &manualClock{
		now:    time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC),
		timers: make(map[*manualTimer]bool),
		poke:   make(chan struct{}, 1),
	}
}

// manualTimer is one timer of a manualClock; every field is guarded by the
// clock's mutex.
type manualTimer struct {
	clk     *manualClock
	c       chan time.Time
	f       func()
	when    time.Time
	seq     uint64
	reads   uint64 // calls of C
	stopped bool   // Stop was called after the last arming
}

// Now implements clock.Clock.
func (m *manualClock) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// NewTimer implements clock.Clock.
func (m *manualClock) NewTimer(d time.Duration) clock.Timer {
	t := &manualTimer{clk: m, c: make(chan time.Time, 1)}
	t.Reset(d)
	return t
}

// AfterFunc implements clock.Clock; f runs on Advance's goroutine.
func (m *manualClock) AfterFunc(d time.Duration, f func()) clock.Timer {
	t := &manualTimer{clk: m, f: f}
	t.Reset(d)
	return t
}

// awaitReaders blocks until n armed timers have been read, that is until
// the loops owning them wait at their selects and a tick fired now is
// handled before Advance moves on.
func (m *manualClock) awaitReaders(n int) {
	m.await(func() bool {
		waiting := 0
		for t := range m.timers {
			if t.reads > 0 {
				waiting++
			}
		}
		return waiting >= n
	})
}

// Since is the fake time elapsed since t.
func (m *manualClock) Since(t time.Time) time.Duration { return m.Now().Sub(t) }

// Advance moves the clock forward by d, firing every timer that falls due on
// the way, each at its own deadline.
func (m *manualClock) Advance(d time.Duration) {
	m.mu.Lock()
	end := m.now.Add(d)
	m.mu.Unlock()
	for {
		m.mu.Lock()
		var next *manualTimer
		for t := range m.timers {
			if !t.when.After(end) && (next == nil || t.when.Before(next.when) ||
				t.when.Equal(next.when) && t.seq < next.seq) {
				next = t
			}
		}
		if next == nil {
			m.now = end
			m.mu.Unlock()
			return
		}
		delete(m.timers, next)
		m.now = next.when
		reads := next.reads
		m.mu.Unlock()
		if next.f != nil {
			next.f()
			continue
		}
		next.c <- next.when // the arming drained it, so there is room
		m.await(func() bool { return len(next.c) == 0 && (next.reads > reads || next.stopped) })
	}
}

// await blocks until done holds under the clock's mutex.
func (m *manualClock) await(done func() bool) {
	deadline := time.After(10 * time.Second)
	for {
		m.mu.Lock()
		ok := done()
		m.mu.Unlock()
		if ok {
			return
		}
		select {
		case <-m.poke:
		case <-deadline:
			panic(fmt.Sprintf("manual clock: a fired timer's owner did not come back within 10s at %v", m.Now()))
		}
	}
}

// touched records a timer call and wakes a waiting Advance; the caller holds
// the clock's mutex.
func (m *manualClock) touched() {
	select {
	case m.poke <- struct{}{}:
	default:
	}
}

// C implements clock.Timer.
func (t *manualTimer) C() <-chan time.Time {
	t.clk.mu.Lock()
	defer t.clk.mu.Unlock()
	t.reads++
	t.clk.touched()
	return t.c
}

// Stop implements clock.Timer.
func (t *manualTimer) Stop() bool {
	t.clk.mu.Lock()
	defer t.clk.mu.Unlock()
	armed := t.clk.timers[t]
	delete(t.clk.timers, t)
	t.drain()
	t.stopped = true
	t.clk.touched()
	return armed
}

// Reset implements clock.Timer.
func (t *manualTimer) Reset(d time.Duration) bool {
	m := t.clk
	m.mu.Lock()
	defer m.mu.Unlock()
	armed := m.timers[t]
	t.drain()
	m.seq++
	t.when, t.seq, t.stopped = m.now.Add(d), m.seq, false
	m.timers[t] = true
	m.touched()
	return armed
}

// drain discards an undelivered tick, as time.Timer's Stop and Reset do.
func (t *manualTimer) drain() {
	if t.c == nil {
		return
	}
	select {
	case <-t.c:
	default:
	}
}
