package session

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dqmx/internal/chaos"
	"dqmx/internal/core"
	"dqmx/internal/mutex"
	"dqmx/internal/obs"
	"dqmx/internal/resource"
	"dqmx/internal/transport"
	"dqmx/internal/wire"
)

// startArbiters builds an n-site in-process cluster (optionally under a
// chaos plan) and runs a session server bound to each of the given sites.
func startArbiters(t *testing.T, n int, sites []int, lease time.Duration, plan *chaos.Plan, sink obs.Sink) (addrs []string, srvs []*Server) {
	t.Helper()
	cluster, err := transport.NewClusterConfig(transport.ClusterConfig{
		Algorithm: core.Algorithm{},
		N:         n,
		Chaos:     plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	for _, site := range sites {
		site := site
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(ServerConfig{
			Site: mutex.SiteID(site),
			Locks: func(name string) (*resource.Lock, error) {
				return cluster.Lock(mutex.SiteID(site), name)
			},
			Listener: ln,
			Lease:    lease,
			Sink:     sink,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		addrs = append(addrs, ln.Addr().String())
		srvs = append(srvs, srv)
	}
	return addrs, srvs
}

func dialClient(t *testing.T, addrs []string, lease time.Duration) *Client {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, ClientConfig{Addrs: addrs, Lease: lease})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestSessionAcquireRelease(t *testing.T) {
	addrs, srvs := startArbiters(t, 3, []int{0}, time.Second, nil, nil)
	c := dialClient(t, addrs, time.Second)
	if c.ID() == 0 {
		t.Fatal("no session id after Dial")
	}
	l, err := c.Lock("orders")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	// Release without a hold must report not-held, like a peer deployment.
	if err := l.Release(); !errors.Is(err, transport.ErrNotHeld) {
		t.Fatalf("double release: got %v, want ErrNotHeld", err)
	}
	// Do pairs acquire/release.
	if err := l.Do(context.Background(), func(context.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	st := srvs[0].Stats()
	if st.Opened != 1 || st.Active != 1 {
		t.Fatalf("stats = %+v, want 1 opened / 1 active", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// The bye is processed asynchronously server-side.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st = srvs[0].Stats()
		if st.Closed == 1 && st.Active == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats after close = %+v, want 1 closed / 0 active", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Operations after Close fail fast.
	if err := l.Acquire(context.Background()); err == nil {
		t.Fatal("acquire on closed client succeeded")
	}
}

// TestClientLockTable: a client keeps one handle per lock name, admits a
// name of resource.MaxNameLength bytes and refuses one a byte longer,
// rejects the reserved empty name, and opens no new name once closed.
func TestClientLockTable(t *testing.T) {
	addrs, _ := startArbiters(t, 3, []int{0}, time.Second, nil, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, ClientConfig{Addrs: addrs, Lease: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a1, err := c.Lock("a")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if a, err := c.Lock("a"); err != nil || a != a1 {
			t.Fatalf("Lock(%q) again = %p, %v; want the first handle %p", "a", a, err, a1)
		}
	}
	if b, err := c.Lock("b"); err != nil || b == a1 {
		t.Fatalf("Lock(%q) = %p, %v; want a handle of its own", "b", b, err)
	}
	longest := strings.Repeat("n", resource.MaxNameLength)
	if _, err := c.Lock(longest); err != nil {
		t.Errorf("%d-byte name refused: %v", len(longest), err)
	}
	if _, err := c.Lock(longest + "n"); err == nil {
		t.Errorf("%d-byte name accepted", len(longest)+1)
	}
	if _, err := c.Lock(resource.Default); err == nil {
		t.Error("empty name accepted: the default resource must stay reserved")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lock("c"); !errors.Is(err, resource.ErrClosed) {
		t.Errorf("Lock of a new name after Close = %v, want ErrClosed", err)
	}
}

func TestSessionMutualExclusion(t *testing.T) {
	addrs, _ := startArbiters(t, 3, []int{0, 1}, 2*time.Second, nil, nil)
	const (
		clients = 8
		rounds  = 10
	)
	var (
		counter int // deliberately unsynchronized; the lock must protect it
		inCS    atomic.Int32
		wg      sync.WaitGroup
	)
	for i := 0; i < clients; i++ {
		// Spread clients across both arbiters.
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := dialClient(t, []string{addrs[i%len(addrs)]}, 2*time.Second)
			l, err := c.Lock("ctr")
			if err != nil {
				t.Error(err)
				return
			}
			for r := 0; r < rounds; r++ {
				err := l.Do(context.Background(), func(context.Context) error {
					if inCS.Add(1) != 1 {
						t.Error("mutual exclusion violated")
					}
					counter++
					inCS.Add(-1)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if counter != clients*rounds {
		t.Fatalf("counter = %d, want %d", counter, clients*rounds)
	}
}

func TestLeaseExpiryReclaim(t *testing.T) {
	const lease = 300 * time.Millisecond
	metrics := obs.NewMetrics()
	addrs, srvs := startArbiters(t, 3, []int{0, 1}, lease, nil, metrics.Observe)

	holder := dialClient(t, []string{addrs[0]}, lease)
	l, err := holder.Lock("r")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	waiter := dialClient(t, []string{addrs[1]}, lease)
	wl, err := waiter.Lock("r")
	if err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		acquired <- wl.Acquire(ctx)
	}()
	// Give the waiter time to queue behind the holder.
	time.Sleep(100 * time.Millisecond)
	select {
	case err := <-acquired:
		t.Fatalf("waiter acquired while holder alive: %v", err)
	default:
	}

	// Crash the holder: no bye, no release, keepalives stop.
	start := time.Now()
	holder.Abandon()
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("waiter never granted after holder crash")
	}
	elapsed := time.Since(start)
	// The bounded-reclaim guarantee: lease TTL + scanner tick + protocol
	// handoff, with generous CI slack.
	if bound := lease + 3*time.Second; elapsed > bound {
		t.Fatalf("reclaim took %v, want <= %v", elapsed, bound)
	}
	st := srvs[0].Stats()
	if st.Expired == 0 || st.Reclaimed == 0 {
		t.Fatalf("arbiter stats = %+v, want expiry + reclaim recorded", st)
	}
	// The arbiter emits the events after the release that woke the waiter.
	snap := metrics.Snapshot()
	for deadline := time.Now().Add(2 * time.Second); snap.Sessions.Expired == 0 && time.Now().Before(deadline); snap = metrics.Snapshot() {
		time.Sleep(5 * time.Millisecond)
	}
	if snap.Sessions.Expired == 0 || snap.Sessions.LocksReclaimed == 0 {
		t.Fatalf("metrics sessions = %+v, want expiry + reclaim events", snap.Sessions)
	}
	if err := wl.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentAcquiresInOneSession: the arbiter runs a session's acquires
// side by side, each in its own slot, so an acquire queued behind another
// session's hold does not hold up the same session's acquire of another
// lock — and both slots serve again afterwards.
func TestConcurrentAcquiresInOneSession(t *testing.T) {
	addrs, srvs := startArbiters(t, 3, []int{0}, 2*time.Second, nil, nil)
	holder := dialClient(t, addrs, 2*time.Second)
	c := dialClient(t, addrs, 2*time.Second)
	xPending := func() bool {
		srvs[0].mu.Lock()
		defer srvs[0].mu.Unlock()
		for _, s := range srvs[0].sessions {
			if len(s.pending) > 0 {
				return true
			}
		}
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hx, err := holder.Lock("x")
	if err != nil {
		t.Fatal(err)
	}
	cx, err := c.Lock("x")
	if err != nil {
		t.Fatal(err)
	}
	cy, err := c.Lock("y")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if err := hx.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
		xDone := make(chan error, 1)
		go func() { xDone <- cx.Acquire(ctx) }()
		waitFor(t, xPending) // x is queued at the arbiter
		if err := cy.Acquire(ctx); err != nil {
			t.Fatalf("round %d: acquire of y while x waits: %v", round, err)
		}
		select {
		case err := <-xDone:
			t.Fatalf("round %d: x acquired while another session holds it (err %v)", round, err)
		default:
		}
		if err := hx.Release(); err != nil {
			t.Fatal(err)
		}
		if err := <-xDone; err != nil {
			t.Fatalf("round %d: acquire of x after its release: %v", round, err)
		}
		if err := cx.Release(); err != nil {
			t.Fatal(err)
		}
		if err := cy.Release(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShortClientLeaseExpiry: the expiry scanner ticks from the shortest
// lease it granted, not from the server's default, so the reclaim bound
// holds for a lease the client asked for. With an 8 s default the scanner
// would otherwise look every 2 s, and a client with a 100 ms lease would
// keep its locks up to 2 s after it died.
func TestShortClientLeaseExpiry(t *testing.T) {
	addrs, srvs := startArbiters(t, 3, []int{0}, 8*time.Second, nil, nil)
	c := dialClient(t, addrs, 100*time.Millisecond)
	start := time.Now()
	c.Abandon()
	for srvs[0].Stats().Expired < 1 {
		if elapsed := time.Since(start); elapsed > 600*time.Millisecond {
			t.Fatalf("session with a 100ms lease not expired %v after its client died", elapsed)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Logf("expired %v after the client died", time.Since(start))
}

func TestReattachPreservesLocks(t *testing.T) {
	addrs, srvs := startArbiters(t, 3, []int{0}, time.Second, nil, nil)
	c := dialClient(t, addrs, time.Second)
	l, err := c.Lock("sticky")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	id := c.ID()

	// Cut the connection out from under the client; it must reattach to
	// the same session within the lease grace window.
	c.mu.Lock()
	sc := c.conn
	c.mu.Unlock()
	sc.c.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		attached := c.conn != nil
		c.mu.Unlock()
		if attached {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never reattached")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := c.ID(); got != id {
		t.Fatalf("session id changed across reattach: %d -> %d", id, got)
	}
	// The lock survived: release must succeed (not ErrLockLost).
	if err := l.Release(); err != nil {
		t.Fatalf("release after reattach: %v", err)
	}
	if st := srvs[0].Stats(); st.Attaches < 2 {
		t.Fatalf("stats = %+v, want >= 2 attaches", st)
	}
}

func TestFailoverToSecondArbiter(t *testing.T) {
	addrs, srvs := startArbiters(t, 3, []int{0, 1}, 500*time.Millisecond, nil, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, ClientConfig{Addrs: addrs, Lease: 500 * time.Millisecond, FailoverWindow: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l, err := c.Lock("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	oldID := c.ID()

	// Kill the arbiter the client is attached to. Its orderly shutdown
	// releases the session's locks; the client must fail over to the
	// second arbiter with a fresh session.
	srvs[0].Close()

	deadline := time.Now().Add(8 * time.Second)
	for c.ID() == oldID || c.ID() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("client never failed over (id still %d)", c.ID())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The old grant is void: Release reports the loss, then the handle is
	// reusable through the new arbiter.
	if err := l.Release(); !errors.Is(err, resource.ErrLockLost) {
		t.Fatalf("release after failover: got %v, want ErrLockLost", err)
	}
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatalf("re-acquire through new arbiter: %v", err)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestTryAcquireContention(t *testing.T) {
	addrs, _ := startArbiters(t, 3, []int{0}, time.Second, nil, nil)
	a := dialClient(t, addrs, time.Second)
	b := dialClient(t, addrs, time.Second)
	la, err := a.Lock("t")
	if err != nil {
		t.Fatal(err)
	}
	lb, err := b.Lock("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := la.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	ok, err := lb.TryAcquire(ctx)
	cancel()
	if err != nil || ok {
		t.Fatalf("TryAcquire on held lock = (%v, %v), want (false, nil)", ok, err)
	}
	if err := la.Release(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	ok, err = lb.TryAcquire(ctx)
	cancel()
	if err != nil || !ok {
		t.Fatalf("TryAcquire on free lock = (%v, %v), want (true, nil)", ok, err)
	}
	if err := lb.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestBadPreambleRejected(t *testing.T) {
	addrs, srvs := startArbiters(t, 3, []int{0}, time.Second, nil, nil)
	before := runtime.NumGoroutine()
	for _, opening := range [][]byte{
		[]byte("GET / HTTP/1.0\r\n\r\n"),
		{0x35, 0xff, 0x00, 0x01},               // a wire-v0 gob stream
		{0x00, 'D', 'Q', wire.MagicSession, 0}, // version 0 in a preamble
		{0x00, 'D', 'Q', wire.MagicPeer, 1},    // a peer site on the client port
	} {
		nc, err := net.Dial("tcp", addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(opening); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := nc.Read(make([]byte, 64)); n != 0 || err == nil {
			// Any bytes back would mean the server spoke to a non-client.
			t.Errorf("opening % x: server answered %d bytes (err %v)", opening, n, err)
		}
		nc.Close()
	}
	// Nothing of the refused connections stays behind.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the refusals, %d before", n, before)
	}

	// The reverse mistake, a session client on a peer port, fails at the
	// handshake instead of feeding session frames to a site.
	sites, err := core.Algorithm{}.NewSites(1)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := transport.NewTCPPeerConfig(transport.TCPConfig{
		Factory:    func(string) (mutex.Site, error) { return sites[0], nil },
		ListenAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	nc, err := net.Dial("tcp", peer.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	start := time.Now()
	if _, err := clientHandshake(nc, 5*time.Second); err == nil {
		t.Error("session handshake succeeded against a peer port")
	} else if d := time.Since(start); d > time.Second {
		t.Errorf("refusal by the peer port took %v", d)
	}

	// The server survives hostile connections.
	c := dialClient(t, addrs, time.Second)
	if c.ID() == 0 {
		t.Fatal("no session after hostile connection")
	}
	if st := srvs[0].Stats(); st.Opened != 1 {
		t.Fatalf("stats = %+v, want exactly the one real session", st)
	}
}

// TestLeaseExpiryMidHold pins the ErrLockLost contract from the holder's
// side: a client whose lease expires while it still believes it holds a
// lock must see resource.ErrLockLost on Release, a strictly larger fencing
// token on the replacement session, and a handle that stays usable. The
// client's keepalives are configured far apart so the lease runs out with
// the client alive and attached — the arbiter expires it mid-hold.
func TestLeaseExpiryMidHold(t *testing.T) {
	const lease = 300 * time.Millisecond
	addrs, srvs := startArbiters(t, 3, []int{0}, lease, nil, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, ClientConfig{
		Addrs: addrs,
		Lease: lease,
		// Never renew: the first keepalive would land after the lease is
		// long gone, so the arbiter must expire the session mid-hold.
		Keepalive:      time.Hour,
		FailoverWindow: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	oldID, oldFence := c.ID(), c.Fence()
	if oldFence == 0 {
		t.Fatal("no fencing token after Dial")
	}
	deadline := c.LeaseDeadline()
	if deadline.IsZero() || !deadline.After(time.Now()) {
		t.Fatalf("lease deadline %v, want a future instant", deadline)
	}
	l, err := c.Lock("held")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Wait out the expiry: the arbiter reclaims the lock and pushes an
	// expire notice; the client re-dials into a fresh session.
	waitUntil := time.Now().Add(15 * time.Second)
	for c.ID() == oldID || c.ID() == 0 {
		if time.Now().After(waitUntil) {
			t.Fatalf("session never expired (id still %d)", c.ID())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if time.Now().Before(deadline) {
		t.Fatalf("session expired before the advertised LeaseDeadline %v", deadline)
	}
	if st := srvs[0].Stats(); st.Expired == 0 || st.Reclaimed == 0 {
		t.Fatalf("arbiter stats = %+v, want the expiry + reclaim recorded", st)
	}

	// The hold is gone: Release reports it, exactly once.
	if err := l.Release(); !errors.Is(err, resource.ErrLockLost) {
		t.Fatalf("release after mid-hold expiry: got %v, want ErrLockLost", err)
	}
	if err := l.Release(); !errors.Is(err, transport.ErrNotHeld) {
		t.Fatalf("second release: got %v, want ErrNotHeld", err)
	}

	// The replacement session carries a strictly larger fencing token and a
	// fresh lease bound; the handle is reusable.
	if newFence := c.Fence(); newFence <= oldFence {
		t.Fatalf("fence did not advance across expiry: %d -> %d", oldFence, newFence)
	}
	if nd := c.LeaseDeadline(); !nd.After(deadline) {
		t.Fatalf("lease deadline did not advance: %v -> %v", deadline, nd)
	}
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatalf("re-acquire after expiry: %v", err)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseDeadlineAdvances pins the keepalive side of LeaseDeadline: with
// renewals flowing, the echoed keepalives keep pushing the conservative
// bound forward, so a long-lived client never sees its own deadline pass.
func TestLeaseDeadlineAdvances(t *testing.T) {
	const lease = 300 * time.Millisecond
	addrs, _ := startArbiters(t, 3, []int{0}, lease, nil, nil)
	c := dialClient(t, addrs, lease)
	first := c.LeaseDeadline()
	if first.IsZero() {
		t.Fatal("no lease deadline after Dial")
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.LeaseDeadline() == first {
		if time.Now().After(deadline) {
			t.Fatal("lease deadline never advanced under keepalives")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if now := time.Now(); now.After(c.LeaseDeadline()) {
		t.Fatalf("deadline %v already passed at %v despite live keepalives", c.LeaseDeadline(), now)
	}
	// Same session throughout: the fence must not have moved.
	if id, fence := c.ID(), c.Fence(); id == 0 || fence == 0 {
		t.Fatalf("session (%d) / fence (%d) lost under keepalives", id, fence)
	}
}

// TestChaosLeaseRecoveryComposition is the lease-expiry ⇄ §6 recovery
// composition drill: under a seeded chaos fabric (drops + delay — the
// reliable sublayer heals the loss), a client crashes mid-hold and a waiter
// on another arbiter must be re-granted within the lease + recovery bound.
// Swept over several seeds; `make race` runs it under -race.
func TestChaosLeaseRecoveryComposition(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short")
	}
	const lease = 250 * time.Millisecond
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			plan := &chaos.Plan{
				Seed:     seed,
				Drop:     0.05,
				MaxDelay: 2 * time.Millisecond,
			}
			addrs, _ := startArbiters(t, 3, []int{0, 1}, lease, plan, nil)
			holder := dialClient(t, []string{addrs[0]}, lease)
			hl, err := holder.Lock("shared")
			if err != nil {
				t.Fatal(err)
			}
			if err := hl.Acquire(context.Background()); err != nil {
				t.Fatal(err)
			}
			waiter := dialClient(t, []string{addrs[1]}, lease)
			wl, err := waiter.Lock("shared")
			if err != nil {
				t.Fatal(err)
			}
			acquired := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				defer cancel()
				acquired <- wl.Acquire(ctx)
			}()
			time.Sleep(50 * time.Millisecond)
			start := time.Now()
			holder.Abandon()
			select {
			case err := <-acquired:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("waiter never granted after crash under chaos")
			}
			if elapsed, bound := time.Since(start), lease+5*time.Second; elapsed > bound {
				t.Fatalf("reclaim under chaos took %v, want <= %v", elapsed, bound)
			}
			if err := wl.Release(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
