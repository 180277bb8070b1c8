package session

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dqmx/internal/core"
	"dqmx/internal/mutex"
	"dqmx/internal/resource"
	"dqmx/internal/transport"
)

// startArbiter runs one session server over site 0 of a fresh 3-site
// cluster with explicit backpressure caps.
func startArbiter(t *testing.T, cfg ServerConfig) (addr string, srv *Server) {
	t.Helper()
	cluster, err := transport.NewClusterConfig(transport.ClusterConfig{
		Algorithm: core.Algorithm{},
		N:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Site = mutex.SiteID(0)
	cfg.Locks = func(name string) (*resource.Lock, error) {
		return cluster.Lock(mutex.SiteID(0), name)
	}
	cfg.Listener = ln
	srv, err = NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return ln.Addr().String(), srv
}

// TestMaxSessionsBackpressure: an arbiter at its session cap refuses new
// sessions with the typed overload signal, keeps serving the admitted one,
// and admits again once a slot frees.
func TestMaxSessionsBackpressure(t *testing.T) {
	addr, srv := startArbiter(t, ServerConfig{Lease: time.Second, MaxSessions: 1})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c1, err := Dial(ctx, ClientConfig{Addrs: []string{addr}, Lease: time.Second})
	if err != nil {
		t.Fatal(err)
	}

	// The second session must be refused — and the refusal must be typed.
	_, err = Dial(ctx, ClientConfig{Addrs: []string{addr}, Lease: time.Second,
		FailoverWindow: 300 * time.Millisecond})
	if !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrSessionLost) {
		t.Fatalf("dial past the session cap: got %v, want ErrOverloaded (or ErrSessionLost after the window)", err)
	}
	if st := srv.Stats(); st.Overloaded == 0 {
		t.Fatalf("stats = %+v, want Overloaded > 0", st)
	}

	// The admitted session still works under pressure.
	l, err := c1.Lock("orders")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}

	// Freeing the slot re-admits.
	c1.Close()
	waitFor(t, func() bool { return srv.Stats().Active == 0 })
	c3, err := Dial(ctx, ClientConfig{Addrs: []string{addr}, Lease: time.Second})
	if err != nil {
		t.Fatalf("dial after slot freed: %v", err)
	}
	c3.Close()
}

// TestMaxPendingBackoffRetry: an acquire past the in-flight cap is refused
// server-side but retried with backoff client-side, so the caller just sees
// a slower grant once capacity frees.
func TestMaxPendingBackoffRetry(t *testing.T) {
	addr, srv := startArbiter(t, ServerConfig{Lease: time.Second, MaxPending: 1})

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	holder, err := Dial(ctx, ClientConfig{Addrs: []string{addr}, Lease: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	hx, err := holder.Lock("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := hx.Acquire(ctx); err != nil {
		t.Fatal(err)
	}

	c, err := Dial(ctx, ClientConfig{Addrs: []string{addr}, Lease: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// First acquire blocks on the held lock and occupies the session's one
	// pending slot.
	cx, err := c.Lock("x")
	if err != nil {
		t.Fatal(err)
	}
	xDone := make(chan error, 1)
	go func() { xDone <- cx.Acquire(ctx) }()
	waitFor(t, func() bool { return srv.Stats().Active == 2 })
	time.Sleep(50 * time.Millisecond) // let the x-acquire reach the arbiter

	// Second acquire exceeds MaxPending: rejected, retried with backoff.
	cy, err := c.Lock("y")
	if err != nil {
		t.Fatal(err)
	}
	yDone := make(chan error, 1)
	go func() { yDone <- cy.Acquire(ctx) }()
	waitFor(t, func() bool { return srv.Stats().Overloaded > 0 })

	// Free the contended lock: x is granted, its slot frees, y's retry lands.
	if err := hx.Release(); err != nil {
		t.Fatal(err)
	}
	if err := <-xDone; err != nil {
		t.Fatalf("contended acquire: %v", err)
	}
	if err := <-yDone; err != nil {
		t.Fatalf("backpressured acquire: %v", err)
	}
	if err := cx.Release(); err != nil {
		t.Fatal(err)
	}
	if err := cy.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestOverloadedAcquireHonorsContext: with capacity permanently exhausted,
// the backoff retry loop gives up when the caller's context does, and the
// error is typed.
func TestOverloadedAcquireHonorsContext(t *testing.T) {
	addr, _ := startArbiter(t, ServerConfig{Lease: time.Second, MaxPending: 1})

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	holder, err := Dial(ctx, ClientConfig{Addrs: []string{addr}, Lease: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	hx, err := holder.Lock("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := hx.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(ctx, ClientConfig{Addrs: []string{addr}, Lease: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cx, err := c.Lock("x")
	if err != nil {
		t.Fatal(err)
	}
	go cx.Acquire(ctx) // occupies the only pending slot for the whole test
	time.Sleep(50 * time.Millisecond)

	cy, err := c.Lock("y")
	if err != nil {
		t.Fatal(err)
	}
	shortCtx, shortCancel := context.WithTimeout(ctx, 400*time.Millisecond)
	defer shortCancel()
	err = cy.Acquire(shortCtx)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("exhausted retry: got %v, want ErrOverloaded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("exhausted retry: got %v, want the context cause attached", err)
	}
}

// TestLeaseSafetyMargin: holding a lock with the lease deadline inside the
// margin fires the warning callback from the keepalive loop.
func TestLeaseSafetyMargin(t *testing.T) {
	addr, _ := startArbiter(t, ServerConfig{Lease: 500 * time.Millisecond})

	var warns atomic.Int64
	var lastRemaining atomic.Int64
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, ClientConfig{
		Addrs:     []string{addr},
		Lease:     500 * time.Millisecond,
		Keepalive: 50 * time.Millisecond,
		// Margin wider than the TTL: every keepalive tick holding a lock is
		// inside the danger window, so the warning must fire promptly.
		SafetyMargin: 2 * time.Second,
		OnLeaseWarning: func(deadline time.Time, remaining time.Duration) {
			warns.Add(1)
			lastRemaining.Store(int64(remaining))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// No lock held: the watchdog must stay quiet.
	time.Sleep(200 * time.Millisecond)
	if n := warns.Load(); n != 0 {
		t.Fatalf("%d warnings while holding nothing", n)
	}

	l, err := c.Lock("orders")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return warns.Load() > 0 })
	if rem := time.Duration(lastRemaining.Load()); rem > 2*time.Second {
		t.Fatalf("warning reported remaining %v beyond the margin", rem)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds or the test deadline budget runs out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
