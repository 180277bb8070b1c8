package session

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// liveHeap returns the heap in use after a full collection (two cycles, so
// that objects freed by finalizers and pooled buffers are gone too).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestNoRetentionPerAcquire drives a long run of critical sections through
// one session and requires that the arbiter and the client keep nothing per
// acquire once it is over: completing, cancelling or expiring a request is a
// bounded transition that leaves nothing behind. The arbiter's acquire slots
// are reused, so they must not pile up either: a slot spent by a cancel is
// dropped, and the parked workers of a session that ended exit.
//
// The load is 20 000 acquire/release cycles, a batch of acquires cancelled
// while queued behind another session, and a third session that dies holding
// the lock and is expired by its lease. Afterwards the live heap may have
// grown by less than 32 bytes per CS, and every goroutine the load started
// must be gone.
func TestNoRetentionPerAcquire(t *testing.T) {
	if testing.Short() {
		t.Skip("20 000 critical sections through a live session")
	}
	const (
		cycles    = 20000
		cancelled = 64
		budget    = 32 // bytes of live heap per CS
	)
	addrs, srvs := startArbiters(t, 3, []int{0}, 2*time.Second, nil, nil)
	srv := srvs[0]
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
	for i := 0; i < 500; i++ { // warm: buffers, free lists and maps reach their size
		cycle()
	}
	goroutines := runtime.NumGoroutine()
	before := liveHeap()

	for i := 0; i < cycles; i++ {
		cycle()
	}

	// Acquires cancelled while they wait behind another session's hold.
	rival, err := Dial(ctx, ClientConfig{Addrs: addrs, Lease: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rl, err := rival.Lock("orders")
	if err != nil {
		t.Fatal(err)
	}
	if err := rl.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cancelled; i++ {
		cctx, cancel := context.WithTimeout(ctx, 2*time.Millisecond)
		if err := l.Acquire(cctx); err == nil {
			t.Fatal("acquired a lock another session holds")
		}
		cancel()
	}
	if err := rl.Release(); err != nil {
		t.Fatal(err)
	}
	rival.Close()

	// A session that dies holding the lock: its lease expires, the arbiter
	// reclaims the lock, and the next acquire goes through.
	doomed, err := Dial(ctx, ClientConfig{Addrs: addrs, Lease: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	dl, err := doomed.Lock("orders")
	if err != nil {
		t.Fatal(err)
	}
	if err := dl.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	doomed.Abandon()
	waitFor(t, func() bool { return srv.Stats().Expired == 1 })
	cycle()

	waitFor(t, func() bool { return srv.Stats().Active == 1 })
	// The other sessions' goroutines wind down on their own schedule.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after the load, %d before it", n, goroutines)
	}
	after := liveHeap()
	growth := int64(after) - int64(before)
	t.Logf("live heap %d -> %d B over %d CS: %.1f B per CS", before, after, cycles, float64(growth)/cycles)
	if growth > budget*cycles {
		t.Errorf("live heap grew %d B over %d CS (%.1f B per CS), budget %d B per CS",
			growth, cycles, float64(growth)/cycles, budget)
	}
}
