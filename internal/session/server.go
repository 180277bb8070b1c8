package session

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"dqmx/internal/clock"
	"dqmx/internal/mutex"
	"dqmx/internal/obs"
	"dqmx/internal/resource"
)

// Server defaults.
const (
	// DefaultLease is the lease TTL granted when neither the server config
	// nor the client's hello names one.
	DefaultLease = 2 * time.Second
	// LeaseCap caps client-requested lease TTLs, or the server's Lease
	// when that is longer.
	LeaseCap = 30 * time.Second
	// HandshakeWindow bounds the preamble + hello exchange.
	HandshakeWindow = 5 * time.Second
	// DefaultMaxPending is the per-session cap on in-flight acquires.
	DefaultMaxPending = 128
	// DefaultMaxSessions is the per-arbiter cap on concurrent sessions.
	DefaultMaxSessions = 1024
)

// errOverloadedText is the distinguished wire string for backpressure
// rejections. The client maps it back to the typed ErrOverloaded and backs
// off before retrying, so transient overload degrades to added latency
// instead of failed operations.
const errOverloadedText = "arbiter overloaded"

// errNotHeldText answers a release of a lock the session does not hold. The
// client reads it on a release it had to send twice as "the first copy got
// through" (see clientInstance.Release).
const errNotHeldText = "lock not held by this session"

// ServerConfig configures one arbiter's session server.
type ServerConfig struct {
	// Site identifies the arbiter in observability events.
	Site mutex.SiteID
	// Locks supplies the arbiter's canonical lock handles by name
	// (required). In production it is a transport.TCPPeer's Lock; tests
	// compose the server over one site of an in-process cluster, which is
	// what lets the lease⇄§6 composition run under the chaos fabric.
	Locks func(name string) (*resource.Lock, error)
	// Listener accepts client connections (required). The server owns it
	// and closes it on Close.
	Listener net.Listener
	// Lease is the default lease TTL (DefaultLease when zero). A client may
	// ask for another; its request is capped at the longer of LeaseCap and
	// Lease. A session is expired within its own TTL, default or
	// client-requested, plus a quarter of it (at least 5ms): the expiry
	// scanner ticks from the shortest TTL in force.
	Lease time.Duration
	// MaxPending caps concurrently in-flight acquires per session.
	MaxPending int
	// MaxSessions caps concurrent sessions at this arbiter
	// (DefaultMaxSessions when zero). A hello past the cap is rejected with
	// the overload signal; reattaches to live sessions are always admitted,
	// so backpressure never severs an established client.
	MaxSessions int
	// Sink receives session lifecycle events (may be nil).
	Sink obs.Sink
}

// Stats is a point-in-time copy of the server's session counters.
type Stats struct {
	// Active is the number of live sessions.
	Active int
	// Opened, Expired, Closed count session lifecycle transitions;
	// Attaches counts connection attachments (opens plus reattaches).
	Opened   uint64
	Expired  uint64
	Closed   uint64
	Attaches uint64
	// Reclaimed counts locks released on behalf of expired sessions.
	Reclaimed uint64
	// Overloaded counts backpressure rejections: session opens past
	// MaxSessions plus acquires past MaxPending.
	Overloaded uint64
}

// Server serves leased lock sessions for one arbiter site.
type Server struct {
	cfg   ServerConfig
	clock clock.Clock // leases, the expiry scanner, ID and token seeds

	mu       sync.Mutex
	sessions map[uint64]*serverSession
	nextID   uint64
	// lastEpoch is the newest fencing token minted; new sessions take
	// max(lastEpoch+1, unix-nanos) so tokens stay strictly increasing within
	// an arbiter and, being time-derived, advance across arbiter restarts
	// and failovers in practice.
	lastEpoch uint64
	closed    bool
	stats     Stats
	// scanTTL is the shortest lease in force when the expiry scanner last
	// looked (the default lease when none is shorter); the scanner ticks at a
	// quarter of it. attach lowers it, and pokes shorterC, when it grants a
	// shorter lease.
	scanTTL  time.Duration
	shorterC chan struct{}

	stopC chan struct{}
	wg    sync.WaitGroup
}

// serverSession is the arbiter-side session state. All fields below the
// embedded identity are guarded by the owning Server's mutex.
type serverSession struct {
	id    uint64
	ttl   time.Duration
	epoch uint64 // fencing token; fixed at session creation

	deadline time.Time
	conn     *sessionConn
	held     map[string]heldLock
	pending  map[uint64]*pendingOp
	// idle holds the session's parked acquire slots, each ready to run the
	// next acquire: never more than the most acquires ever in flight at once.
	idle []*pendingOp
	gone bool // expired or closed; terminal
}

// heldLock is one lock the session holds, with the request that acquired it:
// a cancel naming that request after the grant went out means the two
// crossed on the wire (see opCancel).
type heldLock struct {
	h     *resource.Lock
	reqID uint64
}

// pendingOp is one acquire slot of a session: it is the context the
// arbiter's acquire runs under, and it owns the worker goroutine that runs
// it. A slot serves acquire after acquire, parked on the session's idle list
// in between, so a steady stream of critical sections costs the arbiter no
// allocation and no goroutine start. An abort — the client's cancel, a
// reattach or detach, the end of the session — closes done so that the
// acquire gives up even when the protocol grant races it; a slot whose done
// is closed is spent, and its worker exits once the acquire has wound down.
// Only that abort path makes a new slot. cancelled, and which list a slot is
// on, are guarded by the Server's mutex.
type pendingOp struct {
	done      chan struct{}
	jobs      chan acquireJob // capacity 1: a slot is handed a job only while idle
	cancelled bool
}

// acquireJob is one acquire handed to a slot's worker.
type acquireJob struct {
	name  string
	reqID uint64
}

// Deadline implements context.Context: an acquire has none of its own.
func (op *pendingOp) Deadline() (time.Time, bool) { return time.Time{}, false }

// Done implements context.Context.
func (op *pendingOp) Done() <-chan struct{} { return op.done }

// Err implements context.Context.
func (op *pendingOp) Err() error {
	select {
	case <-op.done:
		return context.Canceled
	default:
		return nil
	}
}

// Value implements context.Context: an acquire carries no values.
func (op *pendingOp) Value(any) any { return nil }

// cancel aborts the slot's acquire and spends the slot; the caller holds the
// Server's mutex.
func (op *pendingOp) cancel() {
	if !op.cancelled {
		op.cancelled = true
		close(op.done)
	}
}

// cancelPending aborts every acquire the session has in flight; the caller
// holds the Server's mutex.
func (s *serverSession) cancelPending() {
	for _, slot := range s.pending {
		slot.cancel()
	}
}

// NewServer starts serving sessions on cfg.Listener.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Locks == nil {
		return nil, errors.New("session: ServerConfig.Locks is required")
	}
	if cfg.Listener == nil {
		return nil, errors.New("session: ServerConfig.Listener is required")
	}
	if cfg.Lease <= 0 {
		cfg.Lease = DefaultLease
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = DefaultMaxPending
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	srv := &Server{
		cfg:      cfg,
		clock:    clock.Real,
		sessions: make(map[uint64]*serverSession),
		scanTTL:  cfg.Lease,
		shorterC: make(chan struct{}, 1),
		stopC:    make(chan struct{}),
	}
	// Session IDs start at a time-derived offset so IDs from a previous
	// incarnation of this arbiter are unlikely to alias into the new table
	// when a client reattaches across a restart.
	srv.nextID = uint64(srv.clock.Now().UnixNano())
	srv.wg.Add(2)
	go srv.acceptLoop()
	go srv.leaseLoop()
	return srv, nil
}

// Addr returns the client-facing listen address.
func (srv *Server) Addr() net.Addr { return srv.cfg.Listener.Addr() }

// Stats returns a copy of the session counters.
func (srv *Server) Stats() Stats {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	s := srv.stats
	s.Active = len(srv.sessions)
	return s
}

// emit reports one session lifecycle event.
func (srv *Server) emit(t obs.EventType, resource string) {
	if srv.cfg.Sink != nil {
		srv.cfg.Sink(obs.Event{Type: t, Site: srv.cfg.Site, Time: obs.Now(), Resource: resource})
	}
}

func (srv *Server) acceptLoop() {
	defer srv.wg.Done()
	for {
		c, err := srv.cfg.Listener.Accept()
		if err != nil {
			select {
			case <-srv.stopC:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		srv.wg.Add(1)
		go srv.handleConn(c)
	}
}

// leaseLoop is the expiry scanner: it sweeps the session table and expires
// every session whose lease ran out, reclaiming its locks. It ticks at a
// quarter of the shortest lease in force, the default or a shorter one a
// client asked for, so that every session is reclaimed within 5/4 of its
// own lease.
func (srv *Server) leaseLoop() {
	defer srv.wg.Done()
	t := srv.clock.NewTimer(scanTick(srv.cfg.Lease))
	defer t.Stop()
	for {
		select {
		case <-srv.stopC:
			return
		case <-srv.shorterC:
		case <-t.C():
		}
		now := srv.clock.Now()
		var expired []*serverSession
		srv.mu.Lock()
		srv.scanTTL = srv.cfg.Lease
		for _, s := range srv.sessions {
			if now.After(s.deadline) {
				expired = append(expired, s)
			} else {
				srv.scanTTL = min(srv.scanTTL, s.ttl)
			}
		}
		t.Reset(scanTick(srv.scanTTL))
		srv.mu.Unlock()
		for _, s := range expired {
			srv.teardown(s, true, "lease expired")
		}
	}
}

// scanTick is the expiry scanner's period for a shortest lease of ttl.
func scanTick(ttl time.Duration) time.Duration {
	return max(ttl/4, 5*time.Millisecond)
}

// teardown ends a session: expiry (reclaim accounting, expire notice) or
// orderly close. Idempotent; the lock reclaims re-enter the quorum protocol
// as ordinary releases, so the next waiter is granted through the normal
// transfer path.
func (srv *Server) teardown(s *serverSession, expired bool, reason string) {
	srv.mu.Lock()
	if s.gone {
		srv.mu.Unlock()
		return
	}
	s.gone = true
	delete(srv.sessions, s.id)
	s.cancelPending()
	for _, slot := range s.idle {
		close(slot.jobs) // its worker exits
	}
	s.idle = nil
	held := s.held
	s.held = nil
	conn := s.conn
	s.conn = nil
	if expired {
		srv.stats.Expired++
		srv.stats.Reclaimed += uint64(len(held))
	} else {
		srv.stats.Closed++
	}
	srv.mu.Unlock()
	for name, hl := range held {
		hl.h.Release()
		if expired {
			srv.emit(obs.EventLockReclaim, name)
		}
	}
	if expired {
		srv.emit(obs.EventSessionExpire, "")
	} else {
		srv.emit(obs.EventSessionClose, "")
	}
	if conn != nil {
		if expired {
			conn.send(envelope("", expireMsg{SessionID: s.id, Reason: reason}))
		}
		// The conn's read loop owns the full close; just unblock it.
		conn.kill()
	}
}

// handleConn negotiates one client connection, binds it to a session (new
// or reattached), and runs its read loop.
func (srv *Server) handleConn(c net.Conn) {
	defer srv.wg.Done()
	sc, err := serverHandshake(c, HandshakeWindow)
	if err != nil {
		c.Close()
		return
	}
	// The hello must arrive within the handshake window too.
	sc.c.SetReadDeadline(time.Now().Add(HandshakeWindow))
	env, err := sc.recv()
	if err != nil {
		sc.close()
		return
	}
	hello, ok := env.Msg.(helloMsg)
	if !ok {
		sc.send(envelope("", grantMsg{Err: fmt.Sprintf("expected hello, got %q", env.Kind())}))
		sc.close()
		return
	}
	sc.c.SetReadDeadline(time.Time{})
	s, grant := srv.attach(sc, hello)
	if s == nil {
		sc.send(envelope("", grant))
		sc.close()
		return
	}
	if err := sc.send(envelope("", grant)); err != nil {
		srv.detach(s, sc)
		sc.close()
		return
	}
	srv.readLoop(s, sc)
}

// attach binds a negotiated connection to a session: reattach when the
// hello names a live session, otherwise a fresh session (the authoritative
// ID rides back in the grant; a client that asked for a dead session learns
// its locks are gone by seeing a different ID).
func (srv *Server) attach(sc *sessionConn, hello helloMsg) (*serverSession, grantMsg) {
	ttl := srv.cfg.Lease
	if hello.TTLMillis > 0 {
		ttl = time.Duration(hello.TTLMillis) * time.Millisecond
		ttl = min(ttl, max(LeaseCap, srv.cfg.Lease))
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.closed {
		return nil, grantMsg{Err: "server shutting down"}
	}
	if s := srv.sessions[hello.SessionID]; s != nil && !s.gone {
		// Reattach: adopt the new connection. The old connection (if any)
		// is closed; its read loop will observe the swap and stand down.
		// In-flight acquires issued over the old connection are cancelled —
		// their replies can no longer be correlated, and the client will
		// reissue anything still wanted. The grant's Held list lets it
		// reconcile grants whose replies were lost.
		if s.conn != nil && s.conn != sc {
			s.conn.kill()
		}
		s.conn = sc
		s.cancelPending()
		s.deadline = srv.clock.Now().Add(s.ttl)
		srv.stats.Attaches++
		held := make([]string, 0, len(s.held))
		for name := range s.held {
			held = append(held, name)
		}
		sort.Strings(held)
		return s, grantMsg{SessionID: s.id, TTLMillis: uint64(s.ttl / time.Millisecond), Epoch: s.epoch, Held: held}
	}
	if len(srv.sessions) >= srv.cfg.MaxSessions {
		srv.stats.Overloaded++
		srv.emitLocked(obs.EventOverload)
		return nil, grantMsg{Err: errOverloadedText}
	}
	id := srv.nextID
	srv.nextID++
	if id == 0 {
		id = srv.nextID
		srv.nextID++
	}
	epoch := uint64(srv.clock.Now().UnixNano())
	if epoch <= srv.lastEpoch {
		epoch = srv.lastEpoch + 1
	}
	srv.lastEpoch = epoch
	s := &serverSession{
		id:       id,
		ttl:      ttl,
		epoch:    epoch,
		deadline: srv.clock.Now().Add(ttl),
		conn:     sc,
		held:     make(map[string]heldLock),
		pending:  make(map[uint64]*pendingOp),
	}
	srv.sessions[id] = s
	if ttl < srv.scanTTL {
		// The scanner ticks too slowly for this lease: wake it to retune.
		srv.scanTTL = ttl
		select {
		case srv.shorterC <- struct{}{}:
		default:
		}
	}
	srv.stats.Opened++
	srv.stats.Attaches++
	srv.emitLocked(obs.EventSessionOpen)
	return s, grantMsg{SessionID: id, TTLMillis: uint64(ttl / time.Millisecond), Epoch: epoch}
}

// emitLocked emits with srv.mu held (the sink must not call back).
func (srv *Server) emitLocked(t obs.EventType) {
	if srv.cfg.Sink != nil {
		srv.cfg.Sink(obs.Event{Type: t, Site: srv.cfg.Site, Time: obs.Now()})
	}
}

// detach unbinds a dead connection from its session. The session itself
// survives until its lease runs out (the reconnect grace window); pending
// acquires die with the connection that carried them.
func (srv *Server) detach(s *serverSession, sc *sessionConn) {
	srv.mu.Lock()
	if s.conn == sc {
		s.conn = nil
		s.cancelPending()
	}
	srv.mu.Unlock()
}

// readLoop dispatches one connection's frames until it dies.
func (srv *Server) readLoop(s *serverSession, sc *sessionConn) {
	defer func() {
		srv.detach(s, sc)
		sc.close()
	}()
	for {
		env, err := sc.recv()
		if err != nil {
			return
		}
		srv.mu.Lock()
		if s.gone || s.conn != sc {
			srv.mu.Unlock()
			return
		}
		// Any frame from the client renews the lease.
		s.deadline = srv.clock.Now().Add(s.ttl)
		srv.mu.Unlock()
		if reqID, op, ok := lockReqOf(env); ok {
			srv.handleLockReq(s, env.Resource, reqID, op)
			continue
		}
		switch env.Msg.(type) {
		case keepaliveMsg:
			sc.send(envelope("", keepaliveMsg{SessionID: s.id}))
		case byeMsg:
			srv.teardown(s, false, "client close")
			return
		case helloMsg:
			// Duplicate hello on a live stream: answer idempotently.
			srv.mu.Lock()
			held := make([]string, 0, len(s.held))
			for name := range s.held {
				held = append(held, name)
			}
			sort.Strings(held)
			ttl := s.ttl
			srv.mu.Unlock()
			sc.send(envelope("", grantMsg{SessionID: s.id, TTLMillis: uint64(ttl / time.Millisecond), Epoch: s.epoch, Held: held}))
		default:
			// Unknown-but-decodable frames are ignored for forward compat.
		}
	}
}

// handleLockReq processes one acquire/release/cancel.
func (srv *Server) handleLockReq(s *serverSession, name string, reqID uint64, op byte) {
	switch op {
	case opAcquire:
		srv.mu.Lock()
		if s.gone {
			srv.mu.Unlock()
			return
		}
		if _, dup := s.held[name]; dup {
			srv.mu.Unlock()
			srv.reply(s, lockRepMsg{ReqID: reqID, Err: "lock already held by this session"})
			return
		}
		if len(s.pending) >= srv.cfg.MaxPending {
			srv.stats.Overloaded++
			srv.emitLocked(obs.EventOverload)
			srv.mu.Unlock()
			srv.reply(s, lockRepMsg{ReqID: reqID, Err: errOverloadedText})
			return
		}
		slot := srv.idleSlotLocked(s)
		s.pending[reqID] = slot
		slot.jobs <- acquireJob{name: name, reqID: reqID} // never blocks: an idle slot's buffer is empty
		srv.mu.Unlock()
	case opRelease:
		srv.mu.Lock()
		h := s.held[name].h
		delete(s.held, name)
		srv.mu.Unlock()
		if h == nil {
			srv.reply(s, lockRepMsg{ReqID: reqID, Err: errNotHeldText})
			return
		}
		if err := h.Release(); err != nil {
			srv.reply(s, lockRepMsg{ReqID: reqID, Err: err.Error()})
			return
		}
		srv.reply(s, lockRepMsg{ReqID: reqID, OK: true})
	case opCancel:
		// The acquire's worker owns the reply; cancelling twice is fine.
		var crossed *resource.Lock
		srv.mu.Lock()
		if slot := s.pending[reqID]; slot != nil {
			slot.cancel()
		} else if hl, ok := s.held[name]; ok && hl.reqID == reqID {
			// The grant and the cancel crossed on the wire: the client gave
			// the request up before the reply reached it, dropped the reply,
			// and will never release. Hand the lock back, or it stays with a
			// session that does not know it holds it.
			delete(s.held, name)
			crossed = hl.h
		}
		srv.mu.Unlock()
		if crossed != nil {
			crossed.Release()
		}
	}
}

// idleSlotLocked takes a parked acquire slot off the session's idle list, or
// makes one — with its worker — when every slot is busy or was spent by an
// abort. The caller holds srv.mu and the session is live.
func (srv *Server) idleSlotLocked(s *serverSession) *pendingOp {
	if n := len(s.idle); n > 0 {
		slot := s.idle[n-1]
		s.idle = s.idle[:n-1]
		return slot
	}
	slot := &pendingOp{done: make(chan struct{}), jobs: make(chan acquireJob, 1)}
	srv.wg.Add(1)
	go srv.acquireWorker(s, slot)
	return slot
}

// acquireWorker runs the acquires handed to one slot, until the slot is
// spent by an abort or its session ends.
func (srv *Server) acquireWorker(s *serverSession, slot *pendingOp) {
	defer srv.wg.Done()
	for job := range slot.jobs {
		if !srv.runAcquire(s, slot, job) {
			return
		}
	}
}

// runAcquire drives one client acquire through the arbiter's quorum
// protocol. The grant can race cancellation and lease expiry; whoever wins,
// a granted-but-unwanted lock is always handed straight back (the protocol
// treats it as an ordinary release, preserving the transfer-path handoff).
//
// Every way an acquire ends — granted, refused, cancelled by the client,
// swept by expiry or a detach — passes through the one section below that
// drops the pending entry and decides the slot's fate: parked on the idle
// list for the next acquire, or, once aborted or with its session gone,
// spent. It reports whether the slot was parked.
func (srv *Server) runAcquire(s *serverSession, slot *pendingOp, job acquireJob) (parked bool) {
	h, err := srv.cfg.Locks(job.name)
	if err == nil {
		err = h.Acquire(slot)
	}
	srv.mu.Lock()
	delete(s.pending, job.reqID)
	gone, cancelled := s.gone, slot.cancelled
	if err == nil && !gone && !cancelled {
		s.held[job.name] = heldLock{h: h, reqID: job.reqID}
	}
	parked = !gone && !cancelled
	if parked {
		s.idle = append(s.idle, slot)
	}
	srv.mu.Unlock()

	switch {
	case errors.Is(err, context.Canceled):
		// Only an abort cancels the slot's context.
		srv.reply(s, lockRepMsg{ReqID: job.reqID, Err: "acquire cancelled"})
	case err != nil:
		srv.reply(s, lockRepMsg{ReqID: job.reqID, Err: err.Error()})
	case gone:
		// Granted, but the session expired while the quorum was deciding:
		// hand the lock straight back.
		h.Release()
		srv.mu.Lock()
		srv.stats.Reclaimed++
		srv.mu.Unlock()
		srv.emit(obs.EventLockReclaim, job.name)
	case cancelled:
		// Granted, but the client cancelled meanwhile: hand it back too.
		h.Release()
		srv.reply(s, lockRepMsg{ReqID: job.reqID, Err: "acquire cancelled"})
	default:
		srv.reply(s, lockRepMsg{ReqID: job.reqID, OK: true})
	}
	return parked
}

// reply sends one lock reply over the session's current connection (which
// may differ from the one that carried the request after a reattach; reqIDs
// are client-unique, so late replies route or are dropped client-side).
func (srv *Server) reply(s *serverSession, rep lockRepMsg) {
	srv.mu.Lock()
	sc := s.conn
	srv.mu.Unlock()
	if sc != nil {
		sc.send(lockRepEnvelope(rep))
	}
}

// Close stops accepting, ends every session (orderly: held locks are
// released so waiters elsewhere are not stranded), and waits for the
// server's goroutines.
func (srv *Server) Close() {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		srv.wg.Wait()
		return
	}
	srv.closed = true
	sessions := make([]*serverSession, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		sessions = append(sessions, s)
	}
	srv.mu.Unlock()
	close(srv.stopC)
	srv.cfg.Listener.Close()
	for _, s := range sessions {
		srv.teardown(s, false, "server shutdown")
	}
	srv.wg.Wait()
}
