package transport

import (
	"testing"
	"time"

	"dqmx/internal/mutex"
)

// TestReliableIdleLoopSleeps: a reliable endpoint with nothing unacknowledged
// and no ack owed runs no flush pass, however long it stays idle. Whatever
// makes it busy wakes it: a send whose first copy is lost is re-sent within
// the first backoff, and a send that lands is acknowledged within
// ackGrace + relTick, after which the flush timer parks again. A pass is a
// fired timer, counted as the site loop's reads of the timer's channel (it
// reads once per pass, back at its select; nothing else is queued on it).
func TestReliableIdleLoopSleeps(t *testing.T) {
	r, w, col, clk := startReliableManual(t, nil)
	var timer *manualTimer // the loop's one timer: the layer's flush timer
	clk.mu.Lock()
	for tm := range clk.timers {
		timer = tm
	}
	clk.mu.Unlock()
	passes := func() uint64 {
		clk.mu.Lock()
		defer clk.mu.Unlock()
		return timer.reads
	}
	unacked := func() int { return r.unacked(streamID{}) }
	idleSecond := func(when string) {
		t.Helper()
		before := passes()
		clk.Advance(time.Second)
		if got := passes() - before; got != 0 {
			t.Fatalf("%s: an idle endpoint ran %d flush passes in one second, want 0", when, got)
		}
	}

	clk.Advance(relTick) // the first pass finds the layer idle
	idleSecond("after start")

	// Lost: only the sender's own retransmission timer can deliver it.
	clk.Advance(relTick / 3) // off the phase the loop ran at
	w.mu.Lock()
	w.drop = func(n int, env mutex.Envelope) bool { return n == 0 }
	w.mu.Unlock()
	if err := r.Send(mutex.Envelope{From: 0, To: 9, Msg: relTestMsg{N: 1}}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(rtxBase*5/4 + relTick + ackGrace + relTick)
	if got, n := len(col.snapshot()), unacked(); got != 1 || n != 0 {
		t.Fatalf("a lost first copy: %d deliveries and %d unacknowledged by 1.25·rtxBase + ackGrace + 2·relTick, want 1 and 0", got, n)
	}
	idleSecond("after the retransmission")

	clk.Advance(relTick / 3)
	if err := r.Send(mutex.Envelope{From: 0, To: 9, Msg: relTestMsg{N: 2}}); err != nil {
		t.Fatal(err)
	}
	if got := len(col.snapshot()); got != 2 {
		t.Fatalf("%d deliveries, want 2", got)
	}
	clk.Advance(ackGrace + relTick)
	if n := unacked(); n != 0 {
		t.Fatalf("%d envelopes still unacknowledged ackGrace + relTick after the send", n)
	}
	idleSecond("after the ack")
}
