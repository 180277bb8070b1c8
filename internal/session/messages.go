// Package session is the lock-service tier: a small fixed coterie of
// arbiter sites — each a full participant in the quorum protocol — serves
// lock sessions to an unbounded population of lightweight clients. Clients
// never join the coterie, so quorum size (and the paper's 3(K−1)..6(K−1)
// message cost) stays constant as the client population grows; a client
// acquire is one request/reply exchange with its arbiter, and the arbiter
// competes on its behalf through the §3.1 protocol.
//
// Sessions are leased. A client's Hello is answered with a Grant carrying a
// session ID and a lease TTL; every subsequent frame from the client renews
// the lease, and a dedicated keepalive renews it across idle stretches.
// When a client crashes or partitions away, the lease runs out and the
// arbiter reclaims every lock the session held — the release re-enters the
// quorum protocol exactly like a voluntary exit, so the next waiter is
// granted through the delay-optimal transfer path and, when the *arbiter*
// crashed instead, the §6 recovery machinery takes over. The lease TTL is
// therefore the bounded window of the tentpole guarantee: a crashed
// client's lock is re-granted within lease + protocol-handoff time.
//
// The wire format is the transport's (internal/wire): session frames
// are mutex.Envelopes whose Msg is one of the session message types below,
// registered with internal/wire in the session tag range (48–55). The
// Resource field names the lock a frame is about; session identity rides in
// the payloads, not in the From/To site fields (clients are not sites).
package session

import (
	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
	"dqmx/internal/wire"
)

// Binary wire tags for the session message types (range 48–55, see the
// registry comment in internal/wire).
const (
	tagHello     byte = 48
	tagGrant     byte = 49
	tagKeepalive byte = 50
	tagLockReq   byte = 51
	tagLockRep   byte = 52
	tagExpire    byte = 53
	tagBye       byte = 54
)

// Lock operation codes carried by lockReqMsg.
const (
	opAcquire byte = 1
	opRelease byte = 2
	opCancel  byte = 3
)

// helloMsg opens (SessionID == 0) or reattaches (SessionID != 0) a client
// session. TTLMillis is the requested lease; 0 asks for the server default.
type helloMsg struct {
	SessionID uint64
	TTLMillis uint64
}

func (helloMsg) Kind() string { return "sess-hello" }

// grantMsg answers a hello. SessionID is authoritative: when it differs
// from the ID the client asked to reattach, the server did not know the old
// session and every lock it held is gone. Held lists the lock names the
// granted session holds server-side, letting a reattaching client reconcile
// grants whose replies were lost in flight. Epoch is the session's fencing
// token: minted strictly increasing per arbiter when a session is created,
// preserved across reattaches to the same session, so a downstream resource
// can reject writes fenced with a token older than the newest it has seen.
// A non-empty Err rejects the hello (the connection is then closed).
type grantMsg struct {
	SessionID uint64
	TTLMillis uint64
	Epoch     uint64
	Held      []string
	Err       string
}

func (grantMsg) Kind() string { return "sess-grant" }

// keepaliveMsg renews the lease (client→server) and proves server liveness
// (server→client echo).
type keepaliveMsg struct {
	SessionID uint64
}

func (keepaliveMsg) Kind() string { return "sess-keepalive" }

// lockReqMsg asks the arbiter to acquire, release, or cancel an acquire of
// the lock named by the envelope's Resource field. ReqID correlates the
// reply; an opCancel names the ReqID of the acquire it cancels.
type lockReqMsg struct {
	ReqID uint64
	Op    byte
}

func (lockReqMsg) Kind() string { return "sess-lock-req" }

// lockRepMsg answers an acquire or release. OK reports a granted acquire or
// a completed release; otherwise Err says why not (cancelled, expired,
// already held, …).
type lockRepMsg struct {
	ReqID uint64
	OK    bool
	Err   string
}

func (lockRepMsg) Kind() string { return "sess-lock-rep" }

// expireMsg tells an attached client its session was expired server-side;
// every lock it held has been reclaimed.
type expireMsg struct {
	SessionID uint64
	Reason    string
}

func (expireMsg) Kind() string { return "sess-expire" }

// byeMsg is an orderly client shutdown: the server releases the session's
// locks immediately instead of waiting out the lease.
type byeMsg struct {
	SessionID uint64
}

func (byeMsg) Kind() string { return "sess-bye" }

func init() {
	wire.RegisterMessage(tagHello, helloMsg{},
		func(b []byte, m mutex.Message) []byte {
			h := m.(helloMsg)
			b = wire.AppendUint(b, h.SessionID)
			return wire.AppendUint(b, h.TTLMillis)
		},
		func(r *wire.Reader) (mutex.Message, error) {
			return helloMsg{SessionID: r.Uint(), TTLMillis: r.Uint()}, nil
		})
	wire.RegisterMessage(tagGrant, grantMsg{},
		func(b []byte, m mutex.Message) []byte {
			g := m.(grantMsg)
			b = wire.AppendUint(b, g.SessionID)
			b = wire.AppendUint(b, g.TTLMillis)
			b = wire.AppendUint(b, g.Epoch)
			b = wire.AppendUint(b, uint64(len(g.Held)))
			for _, name := range g.Held {
				b = wire.AppendString(b, name)
			}
			return wire.AppendString(b, g.Err)
		},
		func(r *wire.Reader) (mutex.Message, error) {
			g := grantMsg{SessionID: r.Uint(), TTLMillis: r.Uint(), Epoch: r.Uint()}
			n := r.Len()
			if n > 0 {
				g.Held = make([]string, 0, n)
				for i := 0; i < n; i++ {
					g.Held = append(g.Held, r.String())
				}
			}
			g.Err = r.String()
			return g, nil
		})
	wire.RegisterMessage(tagKeepalive, keepaliveMsg{},
		func(b []byte, m mutex.Message) []byte {
			return wire.AppendUint(b, m.(keepaliveMsg).SessionID)
		},
		func(r *wire.Reader) (mutex.Message, error) {
			return keepaliveMsg{SessionID: r.Uint()}, nil
		})
	wire.RegisterMessage(tagLockReq, lockReqMsg{},
		func(b []byte, m mutex.Message) []byte {
			q := m.(lockReqMsg)
			b = wire.AppendUint(b, q.ReqID)
			return append(b, q.Op)
		},
		func(r *wire.Reader) (mutex.Message, error) {
			q := lockReqMsg{ReqID: r.Uint(), Op: r.Byte()}
			switch q.Op {
			case opAcquire, opRelease, opCancel:
			default:
				r.Fail("invalid session lock op %d", q.Op)
			}
			return q, nil
		})
	wire.RegisterMessage(tagLockRep, lockRepMsg{},
		func(b []byte, m mutex.Message) []byte {
			p := m.(lockRepMsg)
			b = wire.AppendUint(b, p.ReqID)
			b = wire.AppendBool(b, p.OK)
			return wire.AppendString(b, p.Err)
		},
		func(r *wire.Reader) (mutex.Message, error) {
			return lockRepMsg{ReqID: r.Uint(), OK: r.Bool(), Err: r.String()}, nil
		})
	wire.RegisterMessage(tagExpire, expireMsg{},
		func(b []byte, m mutex.Message) []byte {
			x := m.(expireMsg)
			b = wire.AppendUint(b, x.SessionID)
			return wire.AppendString(b, x.Reason)
		},
		func(r *wire.Reader) (mutex.Message, error) {
			return expireMsg{SessionID: r.Uint(), Reason: r.String()}, nil
		})
	wire.RegisterMessage(tagBye, byeMsg{},
		func(b []byte, m mutex.Message) []byte {
			return wire.AppendUint(b, m.(byeMsg).SessionID)
		},
		func(r *wire.Reader) (mutex.Message, error) {
			return byeMsg{SessionID: r.Uint()}, nil
		})
}

// envelope wraps a session payload for one lock name. Clients are not
// protocol sites, so both site fields carry the None sentinel; only the
// Resource field routes.
func envelope(name string, m mutex.Message) mutex.Envelope {
	return mutex.Envelope{Resource: name, From: timestamp.None, To: timestamp.None, Msg: m}
}
