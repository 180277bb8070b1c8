//go:build !race

package session

import (
	"context"
	"testing"
	"time"
)

// TestAllocsSessionCS: one critical section of a session client, through a
// real session server over loopback to an arbiter on a 3-site in-process
// cluster. testing.AllocsPerRun counts every goroutine's allocations, so the
// budget covers the client, the arbiter's read loop and acquire worker, and
// the quorum below them together: the lock request and reply travel inside
// their envelopes, and the arbiter reuses its acquire slot and the worker
// parked on it. Not under -race: the detector allocates on its own account.
//
// An acquire the client gives up is the abort path, which may allocate (a
// fresh slot and worker on the arbiter, the reply's error text, the caller's
// own context): it is measured and reported, not budgeted.
func TestAllocsSessionCS(t *testing.T) {
	addrs, _ := startArbiters(t, 3, []int{0}, 2*time.Second, nil, nil)
	c := dialClient(t, addrs, 2*time.Second)
	l, err := c.Lock("orders")
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
	t.Logf("%.0f allocs per session Acquire+Release (client and arbiter)", got)
	const budget = 1
	if got > budget {
		t.Errorf("session Acquire+Release: %.0f allocs, budget %d", got, budget)
	}

	// The abort path: a rival session on the same arbiter holds the lock, so
	// each acquire queues on the arbiter's handle until the caller gives up.
	rival := dialClient(t, addrs, 2*time.Second)
	rl, err := rival.Lock("orders")
	if err != nil {
		t.Fatal(err)
	}
	if err := rl.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	abort := func() {
		actx, cancel := context.WithTimeout(ctx, time.Millisecond)
		defer cancel()
		if err := l.Acquire(actx); err == nil {
			t.Fatal("acquired a lock another session holds")
		}
	}
	t.Logf("%.0f allocs per cancelled session acquire (reported, not budgeted)", testing.AllocsPerRun(50, abort))
	if err := rl.Release(); err != nil {
		t.Fatal(err)
	}
}
