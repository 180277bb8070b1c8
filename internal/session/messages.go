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
// are mutex.Envelopes registered with internal/wire in the session tag range
// (48–55). The two frames of a client's critical section, the lock request
// and its reply, travel by value in the envelope's Body; the rest, and a
// reply with an error text, ride behind Msg as the message types below. The
// Resource field names the lock a frame is about; session identity rides in
// the payloads, not in the From/To site fields (clients are not sites).
package session

import (
	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
	"dqmx/internal/wire"
)

// Binary wire tags for the session message types (range 48–55, see the
// registry comment in internal/wire). 51 and 52 are the lock request and
// reply, the inline body kinds mutex.BodySessLockReq and BodySessLockRep,
// whose value is their tag.
const (
	tagHello     byte = 48
	tagGrant     byte = 49
	tagKeepalive byte = 50
	tagExpire    byte = 53
	tagBye       byte = 54
)

// Lock operation codes carried by a lock request.
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

// A lock request asks the arbiter to acquire, release, or cancel an acquire
// of the lock named by the envelope's Resource field. It has no struct: the
// request ID, which correlates the reply, and the op fit an inline body
// (mutex.BodySessLockReq, see lockReqEnvelope), so a request never touches
// the heap. An opCancel names the request ID of the acquire it cancels.

// lockRepMsg answers an acquire or release. OK reports a granted acquire or
// a completed release; otherwise Err says why not (cancelled, expired,
// already held, …). A reply without an error text — every grant and every
// completed release — travels as an inline body (mutex.BodySessLockRep, see
// lockRepEnvelope); only one with a text is boxed behind Envelope.Msg.
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
	wire.RegisterInline(mutex.BodySessLockReq, wire.Inline{
		Enc: func(b []byte, m mutex.Body) []byte {
			b = wire.AppendUint(b, m.TS.Seq)
			return append(b, byte(m.Site))
		},
		Dec: func(r *wire.Reader) (mutex.Body, mutex.Message) {
			reqID, op := r.Uint(), r.Byte()
			switch op {
			case opAcquire, opRelease, opCancel:
			default:
				r.Fail("invalid session lock op %d", op)
			}
			return lockReqEnvelope("", reqID, op).Body, nil
		},
	})
	wire.RegisterInline(mutex.BodySessLockRep, wire.Inline{
		Enc: func(b []byte, m mutex.Body) []byte {
			return appendLockRep(b, lockRepMsg{ReqID: m.TS.Seq, OK: m.Flag})
		},
		Boxed: lockRepMsg{},
		EncBoxed: func(b []byte, m mutex.Message) []byte {
			return appendLockRep(b, m.(lockRepMsg))
		},
		Dec: func(r *wire.Reader) (mutex.Body, mutex.Message) {
			env := lockRepEnvelope(lockRepMsg{ReqID: r.Uint(), OK: r.Bool(), Err: r.String()})
			return env.Body, env.Msg
		},
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

// lockReqEnvelope is the frame a client sends for one lock operation: the
// request ID in the body's TS.Seq, the op in its Site slot.
func lockReqEnvelope(name string, reqID uint64, op byte) mutex.Envelope {
	return mutex.Envelope{Resource: name, From: timestamp.None, To: timestamp.None, Body: mutex.Body{
		Kind: mutex.BodySessLockReq, Site: mutex.SiteID(op), TS: timestamp.Timestamp{Seq: reqID},
	}}
}

// lockReqOf unpacks a lock request; ok is false for any other frame.
func lockReqOf(env mutex.Envelope) (reqID uint64, op byte, ok bool) {
	b := env.Body
	return b.TS.Seq, byte(b.Site), b.Kind == mutex.BodySessLockReq
}

// lockRepEnvelope is the frame an arbiter answers a lock operation with: an
// inline body (OK in Flag, the request ID in TS.Seq) unless the reply carries
// an error text, which only the boxed form can hold. Error replies are the
// abort path, and allowed to allocate.
func lockRepEnvelope(rep lockRepMsg) mutex.Envelope {
	if rep.Err != "" {
		return envelope("", rep)
	}
	return mutex.Envelope{From: timestamp.None, To: timestamp.None, Body: mutex.Body{
		Kind: mutex.BodySessLockRep, Flag: rep.OK, TS: timestamp.Timestamp{Seq: rep.ReqID},
	}}
}

// appendLockRep appends a lock reply's fields, whichever carrier it came in.
func appendLockRep(b []byte, p lockRepMsg) []byte {
	b = wire.AppendUint(b, p.ReqID)
	b = wire.AppendBool(b, p.OK)
	return wire.AppendString(b, p.Err)
}

// lockRepOf unpacks a lock reply from either carrier; ok is false for any
// other frame.
func lockRepOf(env mutex.Envelope) (rep lockRepMsg, ok bool) {
	if b := env.Body; b.Kind == mutex.BodySessLockRep {
		return lockRepMsg{ReqID: b.TS.Seq, OK: b.Flag}, true
	}
	rep, ok = env.Msg.(lockRepMsg)
	return rep, ok
}
