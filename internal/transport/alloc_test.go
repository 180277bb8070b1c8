//go:build !race

package transport

import (
	"context"
	"testing"

	"dqmx/internal/core"
	"dqmx/internal/mutex"
)

// Allocation budgets for the node loop, pinned at the figures this layer
// reached when its buffers became reusable (ISSUE 14). testing.AllocsPerRun
// counts every goroutine's allocations, which is the point: one Acquire is
// the work of a whole quorum of node loops. Not under -race: the detector
// allocates on its own account.

// TestAllocsMailboxCycle: a put/drain cycle reuses the two slices the
// mailbox and its reader double-buffer between them.
func TestAllocsMailboxCycle(t *testing.T) {
	m := newMailbox()
	var msg mutex.Message = mutex.FailureMsg{Failed: 1}
	env := mutex.Envelope{From: 1, To: 2, Msg: msg}
	var batch []mutex.Envelope
	cycle := func() {
		for i := 0; i < 8; i++ {
			m.put(env)
		}
		<-m.notify
		batch = m.drain(batch)
		if len(batch) != 8 {
			t.Fatalf("drained %d envelopes, want 8", len(batch))
		}
	}
	cycle()
	cycle() // both buffers have now grown to the batch size
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("mailbox put/drain cycle: %.0f allocs, want 0", got)
	}
}

// TestAllocsUncontendedAcquireRelease: one uncontended Acquire+Release of a
// named lock on the 9-site in-process grid — 12 protocol messages through
// the reliable sublayer and five node loops. What is left is one boxed
// message value per message kind a step sends (see the core budget); the
// reply channels, envelope queues and per-request maps are all reused.
func TestAllocsUncontendedAcquireRelease(t *testing.T) {
	c, err := NewCluster(core.Algorithm{}, 9)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l, err := c.Lock(0, "hot")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cycle := func() {
		if err := l.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
		if err := l.Release(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		cycle()
	}
	got := testing.AllocsPerRun(500, cycle)
	t.Logf("%.0f allocs per uncontended Acquire+Release (N=9 grid)", got)
	const budget = 7
	if got > budget {
		t.Errorf("uncontended Acquire+Release: %.0f allocs, budget %d", got, budget)
	}
}
