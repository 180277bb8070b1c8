package transport_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"dqmx/internal/core"
	"dqmx/internal/mutex"
	"dqmx/internal/obs"
	"dqmx/internal/transport"
)

func TestReleaseNotHeld(t *testing.T) {
	cluster, err := transport.NewClusterConfig(transport.ClusterConfig{Algorithm: core.Algorithm{}, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	node := cluster.Node(0)
	if err := node.Release(); !errors.Is(err, transport.ErrNotHeld) {
		t.Fatalf("release without acquire = %v, want ErrNotHeld", err)
	}
	if err := node.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := node.Release(); err != nil {
		t.Fatalf("matched release = %v", err)
	}
	if err := node.Release(); !errors.Is(err, transport.ErrNotHeld) {
		t.Fatalf("double release = %v, want ErrNotHeld", err)
	}
	// A node that never acquired must still be able to acquire after the
	// rejected release (the rejection must not corrupt loop state).
	if err := node.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := node.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseClosed(t *testing.T) {
	cluster, err := transport.NewClusterConfig(transport.ClusterConfig{Algorithm: core.Algorithm{}, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Close()
	if err := cluster.Node(0).Release(); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("release on closed node = %v, want ErrClosed", err)
	}
}

func TestTryAcquire(t *testing.T) {
	cluster, err := transport.NewClusterConfig(transport.ClusterConfig{Algorithm: core.Algorithm{}, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// Uncontended: the grant arrives well within the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	ok, err := cluster.Node(0).TryAcquire(ctx)
	cancel()
	if err != nil || !ok {
		t.Fatalf("uncontended TryAcquire = (%v, %v), want (true, nil)", ok, err)
	}

	// Held elsewhere: an expiring context yields (false, nil), not an error.
	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	ok, err = cluster.Node(1).TryAcquire(ctx)
	cancel()
	if err != nil || ok {
		t.Fatalf("contended TryAcquire = (%v, %v), want (false, nil)", ok, err)
	}

	// Re-trying on the holder reports ErrBusy.
	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	ok, err = cluster.Node(0).TryAcquire(ctx)
	cancel()
	if !errors.Is(err, transport.ErrBusy) || ok {
		t.Fatalf("TryAcquire while holding = (%v, %v), want ErrBusy", ok, err)
	}

	if err := cluster.Node(0).Release(); err != nil {
		t.Fatal(err)
	}
	// The abandoned request from node 1's expired try stays in flight until
	// its grant arrives and is handed back automatically; retries during
	// that window see ErrBusy, and once it drains a fresh try succeeds.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ctx, cancel = context.WithTimeout(context.Background(), time.Second)
		ok, err = cluster.Node(1).TryAcquire(ctx)
		cancel()
		if ok && err == nil {
			break
		}
		if err != nil && !errors.Is(err, transport.ErrBusy) {
			t.Fatalf("retry after abandonment = (%v, %v)", ok, err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned request never drained: last = (%v, %v)", ok, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cluster.Node(1).Release(); err != nil {
		t.Fatal(err)
	}
}

// TestTryAcquireClosed covers both shutdown orders: close before and after
// the try is issued.
func TestTryAcquireClosed(t *testing.T) {
	cluster, err := transport.NewClusterConfig(transport.ClusterConfig{Algorithm: core.Algorithm{}, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Close()
	if ok, err := cluster.Node(0).TryAcquire(context.Background()); !errors.Is(err, transport.ErrClosed) || ok {
		t.Fatalf("TryAcquire on closed node = (%v, %v), want ErrClosed", ok, err)
	}
}

// TestAcquireCancelThenCloseDoesNotLeak exercises the context-cancel path
// with the node closing before the abandoned request's grant arrives; the
// observable contract is simply that Close returns.
func TestAcquireCancelThenCloseDoesNotLeak(t *testing.T) {
	cluster, err := transport.NewClusterConfig(transport.ClusterConfig{Algorithm: core.Algorithm{}, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 holds the CS so node 1's request can never be granted.
	if err := cluster.Node(0).Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := cluster.Node(1).Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("acquire = %v, want deadline exceeded", err)
	}
	// Close with the abandoned request still pending: its grant never
	// arrives, and Close must not wait for it.
	done := make(chan struct{})
	go func() {
		cluster.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with an abandoned acquire pending")
	}
}

// TestClusterObserved checks the event stream and the metrics snapshot of
// an instrumented in-process cluster.
func TestClusterObserved(t *testing.T) {
	m := obs.NewMetrics()
	var events []obs.Event
	evC := make(chan obs.Event, 1024)
	cluster, err := transport.NewClusterConfig(transport.ClusterConfig{Algorithm: core.Algorithm{}, N: 4, Metrics: m, Observer: func(e obs.Event) { evC <- e }})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	for k := 0; k < rounds; k++ {
		for i := 0; i < 4; i++ {
			node := cluster.Node(mutex.SiteID(i))
			if err := node.Acquire(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := node.Release(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cluster.Close()
	close(evC)
	for e := range evC {
		events = append(events, e)
	}

	snap, ok := cluster.Snapshot()
	if !ok {
		t.Fatal("Snapshot reported no metrics on an observed cluster")
	}
	if snap.Requests != 4*rounds || snap.Entries != 4*rounds || snap.Exits != 4*rounds {
		t.Errorf("lifecycle counters = %d/%d/%d, want %d each",
			snap.Requests, snap.Entries, snap.Exits, 4*rounds)
	}
	if snap.Messages == 0 || snap.ByKind[mutex.KindRequest] == 0 {
		t.Errorf("no messages recorded: %+v", snap.ByKind)
	}
	// The raw observer must have seen exactly what the collector counted.
	var sends, enters uint64
	for _, e := range events {
		switch e.Type {
		case obs.EventSend:
			sends++
		case obs.EventEnter:
			enters++
		}
	}
	if sends != snap.Messages || enters != snap.Entries {
		t.Errorf("observer saw %d sends / %d enters, collector %d / %d",
			sends, enters, snap.Messages, snap.Entries)
	}
	// Response and waiting must have one sample per completed execution.
	if snap.Response.Count != uint64(4*rounds) || snap.Waiting.Count != uint64(4*rounds) {
		t.Errorf("delay sample counts = %d/%d", snap.Response.Count, snap.Waiting.Count)
	}
}

// TestSnapshotDisabled checks the disabled path stays disabled.
func TestSnapshotDisabled(t *testing.T) {
	cluster, err := transport.NewClusterConfig(transport.ClusterConfig{Algorithm: core.Algorithm{}, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if _, ok := cluster.Snapshot(); ok {
		t.Error("unobserved cluster claims to have metrics")
	}
}

// TestExpiredContextIssuesNoRequest: on an idle 9-site cluster, calls whose
// context is already done return at once — Lock.TryAcquire with (false,
// nil), Lock.Acquire and Node.Acquire with the context's error — and no
// site issues a request for any of them.
func TestExpiredContextIssuesNoRequest(t *testing.T) {
	var requests atomic.Int64
	cluster, err := transport.NewClusterConfig(transport.ClusterConfig{Algorithm: core.Algorithm{}, N: 9,
		Observer: func(e obs.Event) {
			if e.Type == obs.EventRequest {
				requests.Add(1)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := range 200 {
		id := mutex.SiteID(i % cluster.N())
		l, err := cluster.Lock(id, "x")
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := l.TryAcquire(ctx); ok || err != nil {
			t.Fatalf("call %d: Lock.TryAcquire = (%v, %v), want (false, nil)", i, ok, err)
		}
		if err := l.Acquire(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("call %d: Lock.Acquire = %v, want context.Canceled", i, err)
		}
		if err := cluster.Node(id).Acquire(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("call %d: Node.Acquire = %v, want context.Canceled", i, err)
		}
	}
	cluster.DumpState() // runs on every site's loop, after anything queued above
	if got := requests.Load(); got != 0 {
		t.Fatalf("%d requests issued for calls with a cancelled context, want 0", got)
	}
}
