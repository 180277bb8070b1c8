package dqmx_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dqmx"
)

// startService boots an n-arbiter lock-service coterie on loopback TCP:
// peer ports are reserved with throwaway peers first (the address book must
// be complete at construction), then each arbiter is started with Serve.
func startService(t *testing.T, n int, lease time.Duration, opts dqmx.Options) []*dqmx.Server {
	t.Helper()
	tmp := make([]*dqmx.TCPPeer, n)
	addrs := make(map[dqmx.SiteID]string, n)
	for i := 0; i < n; i++ {
		p, err := dqmx.NewTCPNode(n, dqmx.SiteID(i), "127.0.0.1:0", nil, dqmx.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tmp[i] = p
		addrs[dqmx.SiteID(i)] = p.Addr()
	}
	for _, p := range tmp {
		p.Close()
	}
	srvs := make([]*dqmx.Server, n)
	for i := 0; i < n; i++ {
		book := make(map[dqmx.SiteID]string)
		for j, a := range addrs {
			if int(j) != i {
				book[j] = a
			}
		}
		srv, err := dqmx.Serve(dqmx.ServeConfig{
			N:            n,
			ID:           dqmx.SiteID(i),
			PeerListen:   addrs[dqmx.SiteID(i)],
			Peers:        book,
			ClientListen: "127.0.0.1:0",
			Lease:        lease,
			Options:      opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
	}
	return srvs
}

// TestServiceLiveScale is the tentpole acceptance test: a 3-site arbiter
// coterie serves 64 concurrent leased clients over real TCP. Clients
// contend over a handful of named locks; mutual exclusion is asserted in
// shared memory, keepalives run in the background, and the coterie size —
// hence the per-CS quorum traffic — never grows with the client count.
func TestServiceLiveScale(t *testing.T) {
	const (
		nArbiters = 3
		nClients  = 64
	)
	srvs := startService(t, nArbiters, 0, dqmx.Options{
		Quorum:  dqmx.MajorityQuorums,
		Observe: dqmx.ObserveConfig{Metrics: true},
	})
	defer func() {
		for _, s := range srvs {
			s.Close()
		}
	}()
	driveService(t, srvs, nClients)
	var opened uint64
	for _, s := range srvs {
		opened += s.SessionStats().Opened
	}
	if opened < nClients {
		t.Errorf("sessions opened across coterie = %d, want >= %d", opened, nClients)
	}
	if snap, ok := srvs[0].Snapshot(); !ok {
		t.Error("metrics snapshot unavailable despite Observe.Metrics")
	} else if snap.Sessions.Opened == 0 {
		t.Error("arbiter 0 aggregated no session events")
	}
}

// TestServiceScaling: the quorum traffic per CS is a function of the
// coterie alone, however many clients share it. A fresh majority-3 coterie
// (K = 2) serves 8 and then 32 leased clients; at each size the arbiters'
// protocol messages per CS stay inside the paper's 3(K−1)..6(K−1) band.
func TestServiceScaling(t *testing.T) {
	for _, nClients := range []int{8, 32} {
		srvs := startService(t, 3, 0, dqmx.Options{
			Quorum:  dqmx.MajorityQuorums,
			Observe: dqmx.ObserveConfig{Metrics: true},
		})
		driveService(t, srvs, nClients)
		var msgs, exits uint64
		for _, s := range srvs {
			snap, _ := s.Snapshot()
			msgs += snap.Messages
			exits += snap.Exits
			s.Close()
		}
		if exits == 0 {
			t.Fatalf("clients=%d: arbiters recorded no critical-section exit", nClients)
		}
		perCS := float64(msgs) / float64(exits)
		t.Logf("clients=%d: %d protocol messages over %d CS = %.2f per CS", nClients, msgs, exits, perCS)
		if perCS < 3 || perCS > 6 {
			t.Errorf("clients=%d: arbiters sent %.2f protocol messages per CS (%d over %d), want 3..6",
				nClients, perCS, msgs, exits)
		}
	}
}

// driveService has nClients leased clients, spread over the coterie's
// arbiters, each take one of eight named locks three times. It asserts
// mutual exclusion in shared memory and that every entry completes.
func driveService(t *testing.T, srvs []*dqmx.Server, nClients int) {
	t.Helper()
	const (
		nLocks = 8
		rounds = 3
	)
	addrs := make([]string, len(srvs))
	for i, s := range srvs {
		addrs[i] = s.ClientAddr()
	}

	var inCS [nLocks]int32
	var entries atomic.Int64
	var wg sync.WaitGroup
	errC := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Spread clients over the arbiters; each keeps the full list as
			// its failover chain.
			rot := append(append([]string{}, addrs[i%len(addrs):]...), addrs[:i%len(addrs)]...)
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			sess, err := dqmx.Dial(ctx, rot, dqmx.DialConfig{})
			cancel()
			if err != nil {
				errC <- fmt.Errorf("client %d: dial: %w", i, err)
				return
			}
			defer sess.Close()
			slot := i % nLocks
			lock, err := sess.Lock(fmt.Sprintf("svc-%d", slot))
			if err != nil {
				errC <- fmt.Errorf("client %d: %w", i, err)
				return
			}
			for r := 0; r < rounds; r++ {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				err := lock.Acquire(ctx)
				cancel()
				if err != nil {
					errC <- fmt.Errorf("client %d round %d: acquire: %w", i, r, err)
					return
				}
				if !atomic.CompareAndSwapInt32(&inCS[slot], 0, 1) {
					errC <- fmt.Errorf("client %d round %d: mutual exclusion violated", i, r)
					return
				}
				entries.Add(1)
				atomic.StoreInt32(&inCS[slot], 0)
				if err := lock.Release(); err != nil {
					errC <- fmt.Errorf("client %d round %d: release: %w", i, r, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errC)
	for err := range errC {
		t.Error(err)
	}
	if got, want := entries.Load(), int64(nClients*rounds); got != want {
		t.Errorf("clients=%d: critical-section entries = %d, want %d", nClients, got, want)
	}
}

// TestServiceArbiterFailover kills a whole arbiter — session tier and
// protocol peer — while a client holds a lock through it. The client fails
// over to the next arbiter in its list, learns its old session (and lock)
// did not survive, and re-acquires through the surviving majority.
func TestServiceArbiterFailover(t *testing.T) {
	srvs := startService(t, 3, 500*time.Millisecond, dqmx.Options{Quorum: dqmx.MajorityQuorums})
	closed := false
	defer func() {
		for i, s := range srvs {
			if i == 0 && closed {
				continue
			}
			s.Close()
		}
	}()

	// Fail over onto arbiter 1: its majority quorum {1,2} survives the
	// death of arbiter 0.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	sess, err := dqmx.Dial(ctx, []string{srvs[0].ClientAddr(), srvs[1].ClientAddr()}, dqmx.DialConfig{
		Lease: 500 * time.Millisecond,
	})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	lock, err := sess.Lock("failover-lock")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 30*time.Second)
	err = lock.Acquire(ctx)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	oldID := sess.ID()

	srvs[0].Close()
	closed = true

	// The session moves to arbiter 1 under a fresh identity.
	deadline := time.Now().Add(15 * time.Second)
	for sess.ID() == oldID || sess.ID() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("client did not fail over (id still %d, err %v)", sess.ID(), sess.Err())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := lock.Release(); !errors.Is(err, dqmx.ErrLockLost) {
		t.Fatalf("release after arbiter loss = %v, want ErrLockLost", err)
	}
	// The handle stays usable: re-acquire through the surviving quorum.
	ctx, cancel = context.WithTimeout(context.Background(), 30*time.Second)
	err = lock.Acquire(ctx)
	cancel()
	if err != nil {
		t.Fatalf("re-acquire after failover: %v", err)
	}
	if err := lock.Release(); err != nil {
		t.Fatalf("release after failover: %v", err)
	}
}

// TestServiceCrashReclaim pins the tentpole guarantee end to end at the
// public surface: a client that vanishes without releasing (Abandon — no
// bye, no keepalives) has its lock reclaimed when the lease runs out, and a
// waiter on a different arbiter is granted within lease + handoff bound.
func TestServiceCrashReclaim(t *testing.T) {
	const lease = 500 * time.Millisecond
	srvs := startService(t, 3, lease, dqmx.Options{Quorum: dqmx.MajorityQuorums})
	defer func() {
		for _, s := range srvs {
			s.Close()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	holder, err := dqmx.Dial(ctx, []string{srvs[0].ClientAddr()}, dqmx.DialConfig{Lease: lease})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	hLock, err := holder.Lock("reclaim-me")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 30*time.Second)
	err = hLock.Acquire(ctx)
	cancel()
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	waiter, err := dqmx.Dial(ctx, []string{srvs[1].ClientAddr()}, dqmx.DialConfig{})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	defer waiter.Close()
	wLock, err := waiter.Lock("reclaim-me")
	if err != nil {
		t.Fatal(err)
	}

	granted := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), lease+15*time.Second)
		defer cancel()
		granted <- wLock.Acquire(ctx)
	}()
	// Let the waiter queue up behind the holder, then crash the holder.
	time.Sleep(200 * time.Millisecond)
	start := time.Now()
	holder.Abandon()

	if err := <-granted; err != nil {
		t.Fatalf("waiter not granted after holder crash: %v", err)
	}
	elapsed := time.Since(start)
	// The bound is lease + handoff; anything near the test timeout means
	// reclaim did not drive the grant.
	if elapsed > lease+10*time.Second {
		t.Errorf("reclaim handoff took %v, want < lease+10s", elapsed)
	}
	t.Logf("crashed holder's lock re-granted after %v (lease %v)", elapsed, lease)
	wLock.Release()

	st := srvs[0].SessionStats()
	if st.Expired == 0 {
		t.Error("arbiter 0 expired no sessions")
	}
	if st.Reclaimed == 0 {
		t.Error("arbiter 0 reclaimed no locks")
	}
}

// TestServeObserverOneClock: Serve feeds protocol and session events into
// one Observer, so they must share a clock. Events emitted in causal order —
// the arbiter's own acquire and release, then a client's session open, then
// the client's acquire — carry non-decreasing Time. (A session clock counting
// from server creation lags the protocol's process clock by the process's
// age at Serve, which the sleep makes measurable: the session open then read
// earlier than the release before it.)
func TestServeObserverOneClock(t *testing.T) {
	time.Sleep(20 * time.Millisecond)
	var mu sync.Mutex
	var events []dqmx.TraceEvent
	srv, err := dqmx.Serve(dqmx.ServeConfig{
		N: 1, PeerListen: "127.0.0.1:0", ClientListen: "127.0.0.1:0", Detect: -1,
		Options: dqmx.Options{Observe: dqmx.ObserveConfig{Observer: func(e dqmx.TraceEvent) {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	own, err := srv.Lock("clock")
	if err != nil {
		t.Fatal(err)
	}
	if err := own.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := own.Release(); err != nil {
		t.Fatal(err)
	}
	sess, err := dqmx.Dial(ctx, []string{srv.ClientAddr()}, dqmx.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	lock, err := sess.Lock("clock")
	if err != nil {
		t.Fatal(err)
	}
	if err := lock.Acquire(ctx); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	got := append([]dqmx.TraceEvent(nil), events...)
	mu.Unlock()
	var types []dqmx.EventType
	for _, e := range got {
		types = append(types, e.Type)
	}
	if fmt.Sprint(types) != fmt.Sprint([]dqmx.EventType{
		dqmx.EventRequest, dqmx.EventEnter, dqmx.EventExit,
		dqmx.EventSessionOpen, dqmx.EventRequest, dqmx.EventEnter,
	}) {
		t.Fatalf("event sequence %v, want the arbiter's acquire/release, the session open, the client's acquire", types)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Time < got[i-1].Time {
			t.Errorf("%v at %d precedes %v at %d: two clocks on one Observer",
				got[i].Type, got[i].Time, got[i-1].Type, got[i-1].Time)
		}
	}
	if err := lock.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionExpiredContextIssuesNoRequest: a client call whose context is
// already done is answered at the client — TryAcquire with (false, nil) —
// and never reaches the arbiter, which therefore issues no request for it.
// After 200 such calls one real Acquire+Release is the arbiter's only
// request on the lock.
func TestSessionExpiredContextIssuesNoRequest(t *testing.T) {
	var requests atomic.Int64
	srv, err := dqmx.Serve(dqmx.ServeConfig{
		N: 1, PeerListen: "127.0.0.1:0", ClientListen: "127.0.0.1:0", Detect: -1,
		Options: dqmx.Options{Observe: dqmx.ObserveConfig{Observer: func(e dqmx.TraceEvent) {
			if e.Type == dqmx.EventRequest && e.Resource == "x" {
				requests.Add(1)
			}
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sess, err := dqmx.Dial(ctx, []string{srv.ClientAddr()}, dqmx.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	lock, err := sess.Lock("x")
	if err != nil {
		t.Fatal(err)
	}
	done, stop := context.WithCancel(context.Background())
	stop()
	for i := range 200 {
		if ok, err := lock.TryAcquire(done); ok || err != nil {
			t.Fatalf("call %d: TryAcquire with a cancelled context = (%v, %v), want (false, nil)", i, ok, err)
		}
	}
	if err := lock.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := lock.Release(); err != nil {
		t.Fatal(err)
	}
	if got := requests.Load(); got != 1 {
		t.Fatalf("arbiter issued %d requests, want 1: the cancelled calls issued %d", got, got-1)
	}
}
