// The lock-service tier: Serve runs one arbiter — a full participant in the
// quorum protocol that additionally leases lock sessions to clients — and
// Dial attaches a client to a coterie of arbiters.
//
// The tier splits the paper's "site" role in two. Arbiters form a small
// fixed coterie and run the §3.1 protocol among themselves; clients are
// session holders that never join the coterie, so the quorum size — and with
// it the paper's 3(K−1)..6(K−1) message cost per critical section — stays
// constant no matter how many clients attach. A crashed client is handled by
// its lease: when the lease runs out the arbiter releases every lock the
// session held through the ordinary protocol release path, so the next
// waiter is granted via the delay-optimal transfer handoff, and a crashed
// *arbiter* is handled by the §6 recovery machinery exactly as before.
package dqmx

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"dqmx/internal/obs"
	"dqmx/internal/resource"
	"dqmx/internal/session"
	"dqmx/internal/transport"
)

// Session-tier error conditions, re-exported for errors.Is checks at the
// public surface.
var (
	// ErrLockLost means a held lock did not survive a session failover: the
	// session could not be preserved (arbiter restart, lease expiry, or a
	// different arbiter answered) and the lock was reclaimed. The handle
	// stays usable for re-acquisition.
	ErrLockLost = resource.ErrLockLost
	// ErrSessionLost means the client could not reach any arbiter within
	// its failover window; every operation on the session fails with it
	// from then on.
	ErrSessionLost = session.ErrSessionLost
	// ErrSessionClosed is returned by operations on a session after Close
	// or Abandon.
	ErrSessionClosed = session.ErrClientClosed
	// ErrOverloaded means an arbiter refused work for backpressure: its
	// session cap (ServeConfig.MaxSessions) or per-session in-flight
	// acquire cap (ServeConfig.MaxPending) is full. Session acquires retry
	// with exponential backoff on their own; the error surfaces when the
	// caller's context runs out first, or from Dial when every arbiter in
	// the chain is saturated.
	ErrOverloaded = session.ErrOverloaded
)

// Session-tier event types delivered to an Observer. Session events are
// service-level: they never count toward the protocol's per-CS message
// accounting.
const (
	EventSessionOpen   = obs.EventSessionOpen
	EventSessionExpire = obs.EventSessionExpire
	EventSessionClose  = obs.EventSessionClose
	EventLockReclaim   = obs.EventLockReclaim
	EventOverload      = obs.EventOverload
)

// SessionServerStats is a point-in-time copy of an arbiter's session
// counters: live sessions, lifecycle transitions, and locks reclaimed from
// expired sessions.
type SessionServerStats = session.Stats

// ServeConfig configures one arbiter of a lock-service coterie.
type ServeConfig struct {
	// N is the coterie size; ID is this arbiter's site (0..N-1).
	N  int
	ID SiteID
	// PeerListen is the address for inbound protocol traffic from the other
	// arbiters; Peers maps every other site to its peer-facing address.
	PeerListen string
	Peers      map[SiteID]string
	// ClientListen is the address for inbound client sessions. The two
	// listeners speak different stream grammars (peer vs session preamble),
	// so cross-dialing fails loudly rather than desynchronizing.
	ClientListen string
	// Lease is the default session lease TTL (session tier default 2s when
	// zero). A client may ask for another TTL, capped at the longer of 30s
	// and Lease. The lease is the bounded reclaim window: a crashed
	// client's locks re-enter the protocol within its session's lease —
	// Lease, or the TTL the client asked for — plus a quarter of it and one
	// release handoff.
	Lease time.Duration
	// MaxSessions caps concurrent client sessions at this arbiter (default
	// 1024); MaxPending caps in-flight acquires per session (default 128).
	// Work past either cap is refused with ErrOverloaded — clients back off
	// and retry — and counted in MetricsSnapshot.Sessions.Overloaded.
	// Reattaches to live sessions are always admitted.
	MaxSessions int
	MaxPending  int
	// Detect is the arbiter-to-arbiter failure-detection probe period.
	// Arbiters heartbeat each other and a peer silent for 4 × Detect is
	// announced to the §6 recovery protocol, which
	// rebuilds quorums around the crash and re-grants any lock the dead
	// arbiter held — the arbiter-side counterpart of the client-side lease.
	// Zero means the default (500ms); negative disables detection. Detection
	// is also disabled by Options.Faults.DisableRecovery, since announcing
	// failures nobody will recover from only strands requesters earlier.
	Detect time.Duration
	// Options configures the arbiter's protocol, quorum, wire, and
	// observability exactly as for NewTCPNode.
	Options Options
}

// DefaultDetect is the default arbiter failure-detection probe period.
const DefaultDetect = 500 * time.Millisecond

// detectSilence is how many probe periods of silence declare an arbiter
// dead.
const detectSilence = 4

// Server is one arbiter of a lock-service coterie: a TCPPeer running the
// quorum protocol against its peers, plus a session server leasing locks to
// clients. With Options.Observe.Metrics, protocol and session events land in
// the same aggregate, so Snapshot reports both.
type Server struct {
	peer *TCPPeer
	sess *session.Server
	det  *transport.Detector
}

// Serve starts one arbiter: the quorum peer on cfg.PeerListen and the
// client-facing session listener on cfg.ClientListen.
func Serve(cfg ServeConfig) (*Server, error) {
	if cfg.ClientListen == "" {
		return nil, errors.New("dqmx: ServeConfig.ClientListen is required")
	}
	peer, col, err := newTCPPeer(cfg.N, cfg.ID, cfg.PeerListen, cfg.Peers, cfg.Options)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.ClientListen)
	if err != nil {
		peer.Close()
		return nil, fmt.Errorf("dqmx: client listen %s: %w", cfg.ClientListen, err)
	}
	sess, err := session.NewServer(session.ServerConfig{
		Site:        cfg.ID,
		Locks:       peer.Lock,
		Listener:    ln,
		Lease:       cfg.Lease,
		MaxSessions: cfg.MaxSessions,
		MaxPending:  cfg.MaxPending,
		Sink:        sessionSink(col, cfg.Options.Observe.Observer),
	})
	if err != nil {
		ln.Close()
		peer.Close()
		return nil, err
	}
	srv := &Server{peer: peer, sess: sess}
	if cfg.Detect >= 0 && !cfg.Options.Faults.DisableRecovery {
		interval := cfg.Detect
		if interval == 0 {
			interval = DefaultDetect
		}
		srv.det = peer.StartDetector(interval, detectSilence*interval)
	}
	return srv, nil
}

// sessionSink fans session-tier events into the metrics aggregate and the
// user's observer, whichever are present.
func sessionSink(col *obs.Metrics, obsv TraceSink) obs.Sink {
	switch {
	case col != nil && obsv != nil:
		return func(e TraceEvent) {
			col.Observe(e)
			obsv(e)
		}
	case col != nil:
		return col.Observe
	default:
		return obsv
	}
}

// Peer returns the arbiter's protocol peer — the same handle NewTCPNode
// returns — for direct (non-session) lock access and inspection.
func (s *Server) Peer() *TCPPeer { return s.peer }

// Addr returns the peer-facing listen address; ClientAddr the address
// clients dial.
func (s *Server) Addr() string       { return s.peer.Addr() }
func (s *Server) ClientAddr() string { return s.sess.Addr().String() }

// Lock returns the arbiter's own handle for the named lock: the arbiter is
// a full protocol participant and may compete for locks like any site.
func (s *Server) Lock(name string) (*Lock, error) { return s.peer.Lock(name) }

// SessionStats returns the arbiter's session counters.
func (s *Server) SessionStats() SessionServerStats { return s.sess.Stats() }

// Snapshot returns the arbiter's aggregated live metrics — protocol and
// session tiers combined. ok is false unless the server was built with
// Options.Observe.Metrics.
func (s *Server) Snapshot() (snap MetricsSnapshot, ok bool) { return s.peer.Snapshot() }

// SnapshotResource returns the live metrics of one named lock.
func (s *Server) SnapshotResource(name string) (snap MetricsSnapshot, ok bool) {
	return s.peer.SnapshotResource(name)
}

// Close stops the session server first — ending every session releases its
// locks through the still-running protocol, so waiters on other arbiters are
// not stranded — then the failure detector, then the protocol peer.
func (s *Server) Close() {
	s.sess.Close()
	if s.det != nil {
		s.det.Stop()
	}
	s.peer.Close()
}

// Session is a leased lock-service session. Lock returns the same canonical
// *Lock handles a Cluster or TCPPeer yields; their operations are forwarded
// to the attached arbiter, which competes on the client's behalf through the
// quorum protocol. The session renews its lease in the background and fails
// over along its arbiter list when the connection dies; see Dial.
type Session = session.Client

// DialConfig tunes a client session; the zero value is ready to use.
type DialConfig struct {
	// Codec selects nothing (see Codec): leave it empty or set BinaryCodec.
	Codec Codec
	// Lease is the requested lease TTL (session tier default 2s when
	// zero). The arbiter may cap it; the granted TTL governs and bounds the
	// reclaim window should this client crash: its locks re-enter the
	// protocol within the granted TTL plus a quarter of it and one release
	// handoff, whether the TTL is longer or shorter than the arbiter's
	// default.
	Lease time.Duration
	// Keepalive is the lease renewal period (granted TTL / 3 when zero).
	Keepalive time.Duration
	// FailoverWindow is how long the client keeps retrying arbiters after
	// losing its connection before declaring the session lost with
	// ErrSessionLost (3 × granted TTL when zero).
	FailoverWindow time.Duration
	// SafetyMargin arms the lease-safety watchdog: while the session holds
	// any lock and its conservative lease deadline (Session.LeaseDeadline)
	// is closer than this margin, OnLeaseWarning fires — the signal that
	// in-flight work risks outliving the lease and having its lock
	// reclaimed mid-flight. Zero disables the watchdog.
	SafetyMargin time.Duration
	// OnLeaseWarning receives lease-safety warnings with the conservative
	// lease deadline and the time remaining until it (non-positive when
	// already past). Called from the session's keepalive goroutine at most
	// once per keepalive interval; it must not block.
	OnLeaseWarning func(deadline time.Time, remaining time.Duration)
}

// Dial attaches a leased session to the first reachable arbiter and fails
// over along addrs when connections die. Reattaching to the same session
// within its lease preserves held locks; when the session could not be
// preserved, held handles return ErrLockLost on Release and stay usable for
// re-acquisition. The context bounds only the initial attach.
func Dial(ctx context.Context, addrs []string, cfg DialConfig) (*Session, error) {
	if err := cfg.Codec.validate(); err != nil {
		return nil, err
	}
	return session.Dial(ctx, session.ClientConfig{
		Addrs:          addrs,
		Lease:          cfg.Lease,
		Keepalive:      cfg.Keepalive,
		FailoverWindow: cfg.FailoverWindow,
		SafetyMargin:   cfg.SafetyMargin,
		OnLeaseWarning: cfg.OnLeaseWarning,
	})
}
