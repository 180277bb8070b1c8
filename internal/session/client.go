package session

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dqmx/internal/clock"
	"dqmx/internal/resource"
	"dqmx/internal/transport"
)

// Terminal client errors.
var (
	// ErrSessionLost means the client could not maintain a session with any
	// arbiter within the configured window; every operation on the client
	// fails with it from then on.
	ErrSessionLost = errors.New("session: session lost (no arbiter reachable within the failover window)")
	// ErrClientClosed is returned by operations after Close or Abandon.
	ErrClientClosed = errors.New("session: client closed")
	// ErrOverloaded means the arbiter refused work for backpressure (its
	// session or in-flight acquire cap is full). Acquire retries with
	// exponential backoff on its own; the error surfaces only when the
	// caller's context runs out first, or from Dial when every arbiter in
	// the chain is saturated.
	ErrOverloaded = errors.New("session: arbiter overloaded")
)

// Client defaults.
const (
	// DefaultClientLease is the lease TTL requested when the config names
	// none.
	DefaultClientLease = 2 * time.Second
	// DialTimeout bounds one dial + handshake attempt.
	DialTimeout = 2 * time.Second
)

// ClientConfig configures Dial.
type ClientConfig struct {
	// Addrs lists the arbiters' client-facing addresses; the client
	// attaches to the first reachable one and fails over along the list.
	Addrs []string
	// Lease is the requested lease TTL (DefaultClientLease when zero). The
	// server may cap it; the granted TTL governs.
	Lease time.Duration
	// Keepalive is the renewal period (granted TTL / 3 when zero).
	Keepalive time.Duration
	// FailoverWindow is how long the client keeps retrying arbiters after
	// losing its connection before declaring the session lost
	// (3 × granted TTL when zero).
	FailoverWindow time.Duration
	// SafetyMargin arms the lease-safety watchdog: while any lock is held
	// and the conservative lease deadline (see LeaseDeadline) is closer
	// than this margin, OnLeaseWarning fires. Work holding a lock that
	// close to expiry risks the arbiter reclaiming it mid-flight. Zero
	// disables the watchdog.
	SafetyMargin time.Duration
	// OnLeaseWarning receives lease-safety warnings: the conservative lease
	// deadline and the time remaining until it (non-positive when already
	// past). Called from the client's keepalive goroutine, at most once per
	// keepalive interval; it must not block.
	OnLeaseWarning func(deadline time.Time, remaining time.Duration)
}

// result carries one routed lock reply. retry means the reply will never
// arrive (the connection it was issued on died) and the operation should
// reissue; sessionEpoch stamps which session incarnation delivered it.
type result struct {
	rep          lockRepMsg
	sessionEpoch uint64
	retry        bool
}

// call is one in-flight request awaiting its reply. Calls are recycled
// through Client.freeCalls. That is safe because a result is only ever sent
// under c.mu to a call found in c.pending: once a call is out of the map and
// its channel drained, still under c.mu, nothing can reach it again.
type call struct {
	ch chan result
}

// Client is a leased lock-service session: the client half of the session
// protocol. Session.Lock returns canonical *resource.Lock handles whose
// operations are forwarded to the attached arbiter; the client renews its
// lease in the background and fails over along its arbiter list when the
// connection dies.
//
// Failover semantics: reattaching to the *same* session (the arbiter kept
// it alive within the lease grace window) preserves held locks. When the
// session could not be preserved — the arbiter restarted, expired us, or a
// different arbiter answered — every held lock is lost: the old arbiter
// reclaims them at lease expiry, and Release on a lost handle returns
// resource.ErrLockLost (the handle itself stays usable for re-acquisition).
type Client struct {
	cfg   ClientConfig
	clock clock.Clock // lease bounds, keepalives, fail-over and backoff waits

	mu sync.Mutex
	// conn is the attached stream (nil while reconnecting); attachC is
	// closed on every attach and terminal failure, and replaced on detach,
	// so operations can wait for "attached or dead" without polling.
	// attachArmed tracks whether attachC is still open (guards the close).
	conn        *sessionConn
	attachC     chan struct{}
	attachArmed bool
	// sessionID is the server-granted identity; sessionEpoch bumps whenever
	// it changes, invalidating grants from earlier incarnations.
	sessionID    uint64
	sessionEpoch uint64
	// fence is the arbiter-minted fencing token from the last grant (see
	// grantMsg.Epoch); 0 before the first attach.
	fence uint64
	// leaseBase is the local send time of the newest frame known to have
	// reached the arbiter (the hello at attach, then each echoed keepalive);
	// leaseBase + leaseTTL is a conservative lower bound on the server-side
	// lease deadline. kaSent queues the send times of unechoed keepalives.
	leaseBase time.Time
	kaSent    []time.Time
	// serverHeld is the authoritative held-lock set from the last grant,
	// consulted when retrying releases across a reattach.
	serverHeld map[string]bool
	leaseTTL   time.Duration
	lastIn     time.Time
	pending    map[uint64]*call
	freeCalls  []*call // idle calls; at most the high-water number in flight
	nextReq    uint64
	instances  map[string]*clientInstance // one per lock name, with its canonical handle
	err        error                      // terminal: ErrSessionLost or ErrClientClosed
	closed     bool

	stopC chan struct{}
	wg    sync.WaitGroup
}

// Dial establishes a session with the first reachable arbiter. The context
// bounds only the initial attach; the returned client manages its own
// lifetime afterwards.
func Dial(ctx context.Context, cfg ClientConfig) (*Client, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("session: no arbiter addresses")
	}
	if cfg.Lease <= 0 {
		cfg.Lease = DefaultClientLease
	}
	c := &Client{
		cfg:         cfg,
		clock:       clock.Real,
		attachC:     make(chan struct{}),
		attachArmed: true,
		serverHeld:  make(map[string]bool),
		pending:     make(map[uint64]*call),
		instances:   make(map[string]*clientInstance),
		stopC:       make(chan struct{}),
	}
	c.wg.Add(1)
	go c.run()
	// Wait for the first attach (or terminal failure) before returning.
	c.mu.Lock()
	ch := c.attachC
	c.mu.Unlock()
	select {
	case <-ch:
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return c, nil
	case <-ctx.Done():
		c.close(false)
		return nil, ctx.Err()
	}
}

// ID returns the current server-granted session identity (0 when detached
// before the first grant).
func (c *Client) ID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessionID
}

// Fence returns the fencing token of the current session incarnation, as
// minted by the arbiter in the grant (0 before the first attach). Tokens are
// strictly increasing per arbiter and survive reattaches to the same
// session; any failover that loses the session — and with it every held
// lock — yields a larger token. A resource guarded by a session lock can
// store the largest token it has accepted and reject older ones, fencing
// out a client that lost its lease but has not yet noticed.
func (c *Client) Fence() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fence
}

// LeaseDeadline returns a conservative lower bound on the instant the
// arbiter's lease on this session expires: the send time of the newest
// frame known (via its echo) to have reached the arbiter, plus the granted
// TTL. The server's real deadline is never earlier — every received frame
// renews the full TTL there — so holding work past this instant risks the
// locks being reclaimed. Zero when no session has been granted yet.
func (c *Client) LeaseDeadline() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leaseBase.IsZero() || c.leaseTTL <= 0 {
		return time.Time{}
	}
	return c.leaseBase.Add(c.leaseTTL)
}

// Err returns the terminal error once the session is lost or closed.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Lock returns the canonical handle for the named lock; operations on it
// are served by the session's arbiter. CheckName checks a name once, the
// first time it is asked for; a name first asked for after Close fails
// with resource.ErrClosed.
func (c *Client) Lock(name string) (*resource.Lock, error) {
	c.mu.Lock()
	inst := c.instances[name]
	c.mu.Unlock()
	if inst != nil {
		return inst.lock, nil
	}
	if err := resource.CheckName(name); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if inst := c.instances[name]; inst != nil {
		return inst.lock, nil
	}
	if c.closed {
		return nil, resource.ErrClosed
	}
	inst = &clientInstance{c: c, name: name}
	inst.lock = resource.NewLock(name, inst)
	c.instances[name] = inst
	return inst.lock, nil
}

// Close ends the session in an orderly way: the arbiter releases every held
// lock immediately instead of waiting out the lease.
func (c *Client) Close() error {
	c.close(true)
	return nil
}

// Abandon kills the client without telling the arbiter — no bye, no
// further keepalives — simulating a client crash: the session's locks are
// reclaimed only when its lease expires. It exists for fault drills and
// tests of the lease-reclaim bound.
func (c *Client) Abandon() {
	c.close(false)
}

func (c *Client) close(sendBye bool) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return
	}
	c.closed = true
	if c.err == nil {
		c.err = ErrClientClosed
	}
	conn := c.conn
	id := c.sessionID
	c.abortPendingLocked()
	c.mu.Unlock()
	if sendBye && conn != nil {
		conn.send(envelope("", byeMsg{SessionID: id}))
	}
	close(c.stopC)
	if conn != nil {
		// The pump goroutine owns the full close; just unblock it.
		conn.kill()
	}
	c.wg.Wait()
}

// abortPendingLocked wakes every in-flight call with a retry signal; the
// caller holds c.mu. Operations re-check the client state before reissuing,
// so terminal states surface as errors rather than loops.
func (c *Client) abortPendingLocked() {
	for id, cl := range c.pending {
		delete(c.pending, id)
		select {
		case cl.ch <- result{retry: true}:
		default:
		}
	}
}

// fail moves the client to a terminal state.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.abortPendingLocked()
	// Wake waiters; attachC is never replaced after failure.
	if c.attachArmed {
		close(c.attachC)
		c.attachArmed = false
	}
	c.mu.Unlock()
}

// run is the connection manager: dial, attach, pump frames, fail over.
func (c *Client) run() {
	defer c.wg.Done()
	addrIdx := 0
	var disconnectedAt time.Time
	for {
		select {
		case <-c.stopC:
			return
		default:
		}
		sc, grant, helloSent, err := c.dialOne(c.cfg.Addrs[addrIdx%len(c.cfg.Addrs)])
		if err != nil {
			addrIdx++
			if disconnectedAt.IsZero() {
				disconnectedAt = c.clock.Now()
			}
			window := c.cfg.FailoverWindow
			if window <= 0 {
				c.mu.Lock()
				ttl := c.leaseTTL
				c.mu.Unlock()
				if ttl <= 0 {
					ttl = c.cfg.Lease
				}
				window = 3 * ttl
			}
			if c.clock.Now().Sub(disconnectedAt) > window {
				c.fail(ErrSessionLost)
				return
			}
			if !clock.Sleep(c.clock, 50*time.Millisecond, c.stopC) {
				return
			}
			continue
		}
		disconnectedAt = time.Time{}
		if !c.attach(sc, grant, helloSent) {
			sc.close()
			return
		}
		c.pump(sc)
		c.detach(sc)
		sc.close()
		disconnectedAt = c.clock.Now()
	}
}

// dialOne performs one dial + handshake + hello/grant exchange. helloSent
// is the local send time of the hello the grant answered — the base for
// the client's conservative lease-deadline bound.
func (c *Client) dialOne(addr string) (sc *sessionConn, grant grantMsg, helloSent time.Time, err error) {
	c.mu.Lock()
	id := c.sessionID
	c.mu.Unlock()
	nc, err := net.DialTimeout("tcp", addr, DialTimeout)
	if err != nil {
		return nil, grantMsg{}, time.Time{}, err
	}
	sc, err = clientHandshake(nc, DialTimeout)
	if err != nil {
		nc.Close()
		return nil, grantMsg{}, time.Time{}, err
	}
	hello := helloMsg{SessionID: id, TTLMillis: uint64(c.cfg.Lease / time.Millisecond)}
	helloSent = c.clock.Now()
	if err := sc.send(envelope("", hello)); err != nil {
		sc.close()
		return nil, grantMsg{}, time.Time{}, err
	}
	sc.c.SetReadDeadline(time.Now().Add(DialTimeout))
	env, err := sc.recv()
	if err != nil {
		sc.close()
		return nil, grantMsg{}, time.Time{}, err
	}
	grant, ok := env.Msg.(grantMsg)
	if !ok {
		sc.close()
		return nil, grantMsg{}, time.Time{}, fmt.Errorf("session: expected grant, got %q", env.Kind())
	}
	if grant.Err != "" {
		sc.close()
		if grant.Err == errOverloadedText {
			// Typed, so a Dial that exhausts its window against saturated
			// arbiters reports overload rather than a generic dial failure.
			return nil, grantMsg{}, time.Time{}, fmt.Errorf("session: arbiter rejected hello: %w", ErrOverloaded)
		}
		return nil, grantMsg{}, time.Time{}, fmt.Errorf("session: arbiter rejected hello: %s", grant.Err)
	}
	sc.c.SetReadDeadline(time.Time{})
	return sc, grant, helloSent, nil
}

// attach installs a freshly granted connection, reconciling session
// identity and held-lock state, and wakes waiting operations. It reports
// false when the client was closed concurrently.
func (c *Client) attach(sc *sessionConn, grant grantMsg, helloSent time.Time) bool {
	var orphans []string
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	c.conn = sc
	if grant.SessionID != c.sessionID {
		// New session incarnation: grants from the old one are void. The
		// old arbiter (if it still runs) reclaims its locks at lease
		// expiry; held handles here report ErrLockLost on Release.
		c.sessionID = grant.SessionID
		c.sessionEpoch++
	}
	c.fence = grant.Epoch
	c.leaseTTL = time.Duration(grant.TTLMillis) * time.Millisecond
	// The grant proves the hello arrived, so the lease was renewed no
	// earlier than the hello's send time; unechoed keepalives from the old
	// connection will never be confirmed.
	c.leaseBase = helloSent
	c.kaSent = nil
	c.serverHeld = make(map[string]bool, len(grant.Held))
	for _, name := range grant.Held {
		c.serverHeld[name] = true
		// A lock the server holds for us that no local handle believes it
		// holds is an orphan: its grant reply was lost in flight. Release
		// it so it cannot outlive this client's interest.
		inst := c.instances[name]
		if inst == nil || !inst.held || inst.heldEpoch != c.sessionEpoch {
			orphans = append(orphans, name)
		}
	}
	c.lastIn = c.clock.Now()
	c.abortPendingLocked()
	if c.attachArmed {
		close(c.attachC)
		c.attachArmed = false
	}
	c.mu.Unlock()
	for _, name := range orphans {
		reqID := c.reserveReq()
		sc.send(lockReqEnvelope(name, reqID, opRelease))
	}
	return true
}

// detach clears the attached connection and arms a fresh attach barrier.
func (c *Client) detach(sc *sessionConn) {
	c.mu.Lock()
	if c.conn == sc {
		c.conn = nil
		if c.err == nil && !c.closed {
			c.attachC = make(chan struct{})
			c.attachArmed = true
		}
		c.abortPendingLocked()
	}
	c.mu.Unlock()
}

// reserveReq allocates a client-unique request ID.
func (c *Client) reserveReq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextReq++
	return c.nextReq
}

// pump reads frames and drives keepalives until the connection dies.
func (c *Client) pump(sc *sessionConn) {
	stopKA := make(chan struct{})
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.keepaliveLoop(sc, stopKA)
	}()
	defer close(stopKA)
	for {
		env, err := sc.recv()
		if err != nil {
			return
		}
		c.mu.Lock()
		c.lastIn = c.clock.Now()
		if rep, ok := lockRepOf(env); ok {
			if cl := c.pending[rep.ReqID]; cl != nil {
				delete(c.pending, rep.ReqID)
				select {
				case cl.ch <- result{rep: rep, sessionEpoch: c.sessionEpoch}:
				default:
				}
			}
			c.mu.Unlock()
			continue
		}
		switch env.Msg.(type) {
		case keepaliveMsg:
			// The echo confirms the oldest unacknowledged keepalive reached
			// the arbiter and renewed the lease at (no earlier than) its
			// send time. Echoes come back in send order on this stream.
			if len(c.kaSent) > 0 {
				if t := c.kaSent[0]; t.After(c.leaseBase) {
					c.leaseBase = t
				}
				c.kaSent = c.kaSent[1:]
			}
			c.mu.Unlock()
		case expireMsg:
			// The arbiter expired us while attached: our locks are gone.
			// Start over with a fresh session on the next attach.
			c.sessionID = 0
			c.sessionEpoch++
			c.abortPendingLocked()
			c.mu.Unlock()
			return
		default:
			c.mu.Unlock()
		}
	}
}

// keepaliveLoop renews the lease and watches for a silent server: when
// nothing — not even an echo — arrives within the granted TTL, the
// connection is cut to force a failover.
func (c *Client) keepaliveLoop(sc *sessionConn, stop chan struct{}) {
	c.mu.Lock()
	ttl := c.leaseTTL
	id := c.sessionID
	c.mu.Unlock()
	interval := c.cfg.Keepalive
	if interval <= 0 {
		interval = ttl / 3
	}
	if interval <= 0 {
		interval = DefaultClientLease / 3
	}
	t := c.clock.NewTimer(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-c.stopC:
			return
		case <-t.C():
			t.Reset(interval)
		}
		c.mu.Lock()
		stale := ttl > 0 && c.clock.Now().Sub(c.lastIn) > ttl
		c.mu.Unlock()
		if stale {
			sc.kill()
			return
		}
		c.checkLeaseMargin()
		c.mu.Lock()
		c.kaSent = append(c.kaSent, c.clock.Now())
		c.mu.Unlock()
		if err := sc.send(envelope("", keepaliveMsg{SessionID: id})); err != nil {
			// The queued entry is never echoed; attach resets the queue
			// when the replacement connection comes up.
			sc.kill()
			return
		}
	}
}

// checkLeaseMargin is the lease-safety watchdog: when a lock is held this
// session and the conservative lease deadline is closer than the configured
// margin, the warning callback fires. The deadline bound is conservative
// (the server's real deadline is never earlier — see LeaseDeadline), so a
// warning can be early but never late.
func (c *Client) checkLeaseMargin() {
	margin, warn := c.cfg.SafetyMargin, c.cfg.OnLeaseWarning
	if margin <= 0 || warn == nil {
		return
	}
	c.mu.Lock()
	held := false
	for _, inst := range c.instances {
		if inst.held && inst.heldEpoch == c.sessionEpoch {
			held = true
			break
		}
	}
	var deadline time.Time
	if !c.leaseBase.IsZero() && c.leaseTTL > 0 {
		deadline = c.leaseBase.Add(c.leaseTTL)
	}
	c.mu.Unlock()
	if !held || deadline.IsZero() {
		return
	}
	if remaining := deadline.Sub(c.clock.Now()); remaining < margin {
		warn(deadline, remaining)
	}
}

// issue sends one lock request and waits for its reply. retry=true means
// the connection turned over before a reply arrived and the caller should
// re-evaluate and reissue; the request was not necessarily processed. A
// context already done sends nothing.
func (c *Client) issue(ctx context.Context, name string, op byte) (rep lockRepMsg, epoch uint64, retry bool, err error) {
	// Wait until attached (or a terminal state).
	for {
		if err := ctx.Err(); err != nil {
			return lockRepMsg{}, 0, false, err
		}
		c.mu.Lock()
		if c.err != nil {
			err := c.err
			c.mu.Unlock()
			return lockRepMsg{}, 0, false, err
		}
		if c.conn != nil {
			break // mu still held
		}
		ch := c.attachC
		c.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return lockRepMsg{}, 0, false, ctx.Err()
		case <-c.stopC:
			return lockRepMsg{}, 0, false, ErrClientClosed
		}
	}
	sc := c.conn
	c.nextReq++
	reqID := c.nextReq
	var cl *call
	if n := len(c.freeCalls); n > 0 {
		cl, c.freeCalls = c.freeCalls[n-1], c.freeCalls[:n-1]
	} else {
		cl = &call{ch: make(chan result, 1)}
	}
	c.pending[reqID] = cl
	c.mu.Unlock()
	if err := sc.send(lockReqEnvelope(name, reqID, op)); err != nil {
		// The connection is dying; the pump will notice. Treat as retry.
		c.mu.Lock()
		c.retireCallLocked(reqID, cl)
		c.mu.Unlock()
		return lockRepMsg{}, 0, true, nil
	}
	select {
	case res := <-cl.ch:
		c.mu.Lock()
		c.retireCallLocked(reqID, cl) // the sender already took it off pending
		c.mu.Unlock()
		if res.retry {
			return lockRepMsg{}, 0, true, nil
		}
		return res.rep, res.sessionEpoch, false, nil
	case <-ctx.Done():
		c.mu.Lock()
		c.retireCallLocked(reqID, cl)
		conn := c.conn
		c.mu.Unlock()
		if op == opAcquire && conn != nil {
			// Best-effort cancel: if the grant raced our cancellation the
			// arbiter hands the lock straight back.
			conn.send(lockReqEnvelope(name, reqID, opCancel))
		}
		return lockRepMsg{}, 0, false, ctx.Err()
	case <-c.stopC:
		return lockRepMsg{}, 0, false, ErrClientClosed
	}
}

// retireCallLocked takes a call out of flight and makes it reusable: off the
// pending map, any result that raced the caller's exit drained. The caller
// holds c.mu.
func (c *Client) retireCallLocked(reqID uint64, cl *call) {
	delete(c.pending, reqID)
	select {
	case <-cl.ch:
	default:
	}
	c.freeCalls = append(c.freeCalls, cl)
}

// clientInstance is one named lock's resource.Endpoint at the client:
// Acquire/Release forward to the arbiter; its resource.Lock handle provides
// the same local-queueing semantics as a peer deployment. held and
// heldEpoch are guarded by the client's mutex.
type clientInstance struct {
	c    *Client
	name string
	lock *resource.Lock // the name's canonical handle, driving this instance

	held      bool
	heldEpoch uint64
}

// Acquire forwards to the arbiter, reissuing across failovers until
// granted, rejected, cancelled, or the client dies. Backpressure rejections
// (ErrOverloaded) are retried with exponential backoff — capped at half a
// second — for as long as the caller's context allows, so transient
// overload costs latency, not failures.
func (ci *clientInstance) Acquire(ctx context.Context) error {
	backoff := 5 * time.Millisecond
	for {
		rep, epoch, retry, err := ci.c.issue(ctx, ci.name, opAcquire)
		if err != nil {
			return err
		}
		if retry {
			continue
		}
		if !rep.OK {
			if rep.Err == errOverloadedText {
				t := ci.c.clock.NewTimer(backoff)
				select {
				case <-ctx.Done():
					return fmt.Errorf("session: acquire %q: %w: %w", ci.name, ErrOverloaded, ctx.Err())
				case <-ci.c.stopC:
					return ErrClientClosed
				case <-t.C():
				}
				if backoff *= 2; backoff > 500*time.Millisecond {
					backoff = 500 * time.Millisecond
				}
				continue
			}
			return fmt.Errorf("session: acquire %q: %s", ci.name, rep.Err)
		}
		ci.c.mu.Lock()
		ci.held = true
		ci.heldEpoch = epoch
		ci.c.mu.Unlock()
		return nil
	}
}

// TryAcquire maps running out of time to (false, nil) per the Endpoint
// contract.
func (ci *clientInstance) TryAcquire(ctx context.Context) (bool, error) {
	err := ci.Acquire(ctx)
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return false, nil
	default:
		return false, err
	}
}

// Release forwards to the arbiter. A grant from an earlier session
// incarnation is gone — the old arbiter reclaims it at lease expiry — and
// reports resource.ErrLockLost; the handle stays usable.
//
// It waits for the arbiter's answer without a deadline of its own: a stream
// that went silent is cut by the keepalive watchdog and a cut stream wakes
// the call with a retry, so a timer here could only re-send a release the
// arbiter already has. The release is sent again only after the connection
// turned over, and that re-send is idempotent: "not held" then means an
// earlier copy got through (or the lease reclaimed the lock), not an error.
func (ci *clientInstance) Release() error {
	resent := false
	for {
		ci.c.mu.Lock()
		if !ci.held {
			ci.c.mu.Unlock()
			return transport.ErrNotHeld
		}
		if ci.heldEpoch != ci.c.sessionEpoch {
			ci.held = false
			ci.c.mu.Unlock()
			return resource.ErrLockLost
		}
		ci.c.mu.Unlock()
		rep, _, retry, err := ci.c.issue(context.Background(), ci.name, opRelease)
		if err != nil {
			return err
		}
		if retry {
			// The connection turned over mid-release. The fresh grant's
			// held set is authoritative: if the arbiter no longer lists
			// the lock, the release (or a reclaim) already happened.
			ci.c.mu.Lock()
			if ci.heldEpoch == ci.c.sessionEpoch && !ci.c.serverHeld[ci.name] {
				ci.held = false
				ci.c.mu.Unlock()
				return nil
			}
			ci.c.mu.Unlock()
			resent = true
			continue
		}
		ci.c.mu.Lock()
		ci.held = false
		ci.c.mu.Unlock()
		if !rep.OK {
			if resent && rep.Err == errNotHeldText {
				return nil
			}
			return fmt.Errorf("session: release %q: %s", ci.name, rep.Err)
		}
		return nil
	}
}
