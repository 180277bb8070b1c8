package session

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// rawSession dials an arbiter and completes the handshake and hello by hand,
// returning the negotiated stream: a scripted client, for orderings the real
// one only produces by racing.
func rawSession(t *testing.T, addr string) *sessionConn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := clientHandshake(nc, 5*time.Second)
	if err != nil {
		nc.Close()
		t.Fatal(err)
	}
	t.Cleanup(sc.close)
	if err := sc.send(envelope("", helloMsg{TTLMillis: 2000})); err != nil {
		t.Fatal(err)
	}
	env, err := sc.recv()
	if err != nil {
		t.Fatal(err)
	}
	if g, ok := env.Msg.(grantMsg); !ok || g.Err != "" {
		t.Fatalf("hello answered with %+v", env.Msg)
	}
	return sc
}

// TestCancelCrossingGrant: a client that gives an acquire up sends a cancel
// and drops whatever reply arrives later. When the grant was already on its
// way, the arbiter must take the lock back on seeing the cancel — otherwise
// the session holds a lock its client does not know about, and every other
// session waits on it for as long as the first one lives.
func TestCancelCrossingGrant(t *testing.T) {
	addrs, _ := startArbiters(t, 3, []int{0}, 2*time.Second, nil, nil)
	sc := rawSession(t, addrs[0])
	if err := sc.send(lockReqEnvelope("orders", 1, opAcquire)); err != nil {
		t.Fatal(err)
	}
	env, err := sc.recv()
	if err != nil {
		t.Fatal(err)
	}
	if rep, ok := lockRepOf(env); !ok || !rep.OK || rep.ReqID != 1 {
		t.Fatalf("acquire answered with %v", env.PayloadString())
	}
	// The grant is out; now the cancel the client sent before it saw it.
	if err := sc.send(lockReqEnvelope("orders", 1, opCancel)); err != nil {
		t.Fatal(err)
	}
	// Another session must get the lock while the first is still alive.
	other := dialClient(t, addrs, 2*time.Second)
	l, err := other.Lock("orders")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := l.Acquire(ctx); err != nil {
		t.Fatalf("lock still held by the session whose acquire was cancelled: %v", err)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	// A cancel that names some other request must not release a held lock.
	if err := sc.send(lockReqEnvelope("orders", 2, opAcquire)); err != nil {
		t.Fatal(err)
	}
	if env, err = sc.recv(); err != nil {
		t.Fatal(err)
	} else if rep, ok := lockRepOf(env); !ok || !rep.OK {
		t.Fatalf("second acquire answered with %v", env.PayloadString())
	}
	if err := sc.send(lockReqEnvelope("orders", 1, opCancel)); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel2()
	if err := l.Acquire(ctx2); err == nil {
		t.Fatal("a stale cancel released a lock held under a later request")
	}
}

// fakeArbiter runs a scripted arbiter: it accepts session connections,
// completes the handshake and reads the hello, then hands the stream to
// serve along with the connection's ordinal. serve returns to drop the
// connection.
func fakeArbiter(t *testing.T, serve func(n int, sc *sessionConn, hello helloMsg)) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				sc, err := serverHandshake(nc, 5*time.Second)
				if err != nil {
					nc.Close()
					return
				}
				defer sc.close()
				env, err := sc.recv()
				if err != nil {
					return
				}
				if hello, ok := env.Msg.(helloMsg); ok {
					serve(n, sc, hello)
				}
			}(n)
		}
	}()
	return ln.Addr().String()
}

// serveFrames answers keepalives and passes every lock request to onReq
// until the stream dies or onReq returns false.
func serveFrames(sc *sessionConn, id uint64, onReq func(reqID uint64, op byte) bool) {
	for {
		env, err := sc.recv()
		if err != nil {
			return
		}
		if reqID, op, ok := lockReqOf(env); ok {
			if !onReq(reqID, op) {
				return
			}
		} else if _, ok := env.Msg.(keepaliveMsg); ok {
			sc.send(envelope("", keepaliveMsg{SessionID: id}))
		}
	}
}

// TestReleaseSlowArbiter: an arbiter that takes longer than writeTimeout to
// answer a release must see that release exactly once, and the caller must
// get the arbiter's answer. The client used to time the wait out and issue
// the release again under a new request ID; the arbiter answered the copy
// "lock not held by this session" while the original was still in hand, and
// Release reported an error for a release that succeeded.
func TestReleaseSlowArbiter(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out writeTimeout")
	}
	t.Parallel()
	var releases atomic.Int32
	addr := fakeArbiter(t, func(_ int, sc *sessionConn, _ helloMsg) {
		sc.send(envelope("", grantMsg{SessionID: 7, TTLMillis: 60000, Epoch: 1}))
		serveFrames(sc, 7, func(reqID uint64, op byte) bool {
			switch op {
			case opAcquire:
				sc.send(lockRepEnvelope(lockRepMsg{ReqID: reqID, OK: true}))
			case opRelease:
				if releases.Add(1) > 1 {
					// What the real arbiter says to a second copy.
					sc.send(lockRepEnvelope(lockRepMsg{ReqID: reqID, Err: errNotHeldText}))
					return true
				}
				go func() {
					time.Sleep(writeTimeout + 500*time.Millisecond)
					sc.send(lockRepEnvelope(lockRepMsg{ReqID: reqID, OK: true}))
				}()
			}
			return true
		})
	})
	c, err := Dial(context.Background(), ClientConfig{Addrs: []string{addr}, Lease: time.Minute, Keepalive: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abandon()
	l, err := c.Lock("orders")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := l.Release(); err != nil {
		t.Errorf("release of a held lock through a slow arbiter: %v", err)
	}
	if n := releases.Load(); n != 1 {
		t.Errorf("arbiter saw %d release frames, want 1", n)
	}
}

// TestReleaseResentAfterTurnover: the one case in which a release is sent
// twice. The lock was acquired before the last reattach, so the client knows
// the arbiter lists it as held; the connection then dies after the arbiter
// processed the release but before its answer got out, and the client sends
// the release again on the next connection. The arbiter answers that copy
// "not held", which on a re-sent release means done, not failed.
func TestReleaseResentAfterTurnover(t *testing.T) {
	var releases atomic.Int32
	addr := fakeArbiter(t, func(n int, sc *sessionConn, hello helloMsg) {
		grant := grantMsg{SessionID: 7, TTLMillis: 60000, Epoch: 1}
		if n > 0 {
			if hello.SessionID != 7 {
				t.Errorf("reattach hello names session %d, want 7", hello.SessionID)
			}
			grant.Held = []string{"orders"}
		}
		sc.send(envelope("", grant))
		serveFrames(sc, 7, func(reqID uint64, op byte) bool {
			switch op {
			case opAcquire:
				sc.send(lockRepEnvelope(lockRepMsg{ReqID: reqID, OK: true}))
				return n > 0 // the first connection dies once the lock is held
			case opRelease:
				releases.Add(1)
				if n == 1 {
					return false // processed; the answer dies with the connection
				}
				sc.send(lockRepEnvelope(lockRepMsg{ReqID: reqID, Err: errNotHeldText}))
			}
			return true
		})
	})
	c, err := Dial(context.Background(), ClientConfig{Addrs: []string{addr}, Lease: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abandon()
	l, err := c.Lock("orders")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Let the first turnover finish: the reattach grant lists the lock.
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.conn != nil && c.serverHeld["orders"]
	})
	if err := l.Release(); err != nil {
		t.Errorf("release re-sent after a connection turnover: %v", err)
	}
	if n := releases.Load(); n != 2 {
		t.Errorf("arbiter saw %d release frames, want 2 (one per connection)", n)
	}
	// A first-time release of a lock the arbiter does not hold is still an
	// error: only a re-sent one may read "not held" as done.
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := l.Release(); err == nil {
		t.Error("a first-time release answered \"not held\" returned nil")
	}
}
