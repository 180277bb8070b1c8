// Package transport runs the mutual exclusion state machines outside the
// simulator: one loop goroutine per site, which steps every lock's machine
// at that site in the order its inputs arrived, with in-process wiring for
// single-binary deployments and a framed TCP transport for real clusters.
// The protocol code is identical to what the simulator drives — only the
// message plumbing differs.
package transport

import (
	"context"
	"errors"
	"fmt"

	"dqmx/internal/mutex"
	"dqmx/internal/obs"
)

var (
	// ErrBusy is returned by Acquire when the site already holds or is
	// acquiring the critical section (sites execute requests one by one).
	ErrBusy = errors.New("transport: site already holds or awaits the critical section")
	// ErrClosed is returned when the node has shut down.
	ErrClosed = errors.New("transport: node is closed")
	// ErrNotHeld is returned by Release when the site does not hold the
	// critical section — a release without a matching successful acquire.
	ErrNotHeld = errors.New("transport: release without a held critical section")
	// ErrNotReconfigurable is returned by Reconfigure when the hosted
	// algorithm does not implement mutex.Reconfigurable.
	ErrNotReconfigurable = errors.New("transport: algorithm does not support membership reconfiguration")
)

// Sender transmits an envelope toward a remote site. Implementations must
// preserve per-destination FIFO ordering (the protocol's channel model).
type Sender interface {
	Send(env mutex.Envelope) error
}

// BatchSender is what every fabric implements: all envelopes produced by one
// state-machine step are handed over together, letting the transport
// coalesce them — one mailbox lock in-process, one buffered write per
// destination over TCP — instead of paying per-envelope overhead. Order
// within the batch must be preserved per destination. The batch belongs to
// the caller again once SendBatch returns: an implementation may rewrite it
// in place (stamping, filtering, regrouping) but must copy what it keeps.
type BatchSender interface {
	Sender
	SendBatch(envs []mutex.Envelope) error
}

// Node is one lock's instance at one site: the site's machine for that
// lock, its pending Acquire and its step buffer. It exposes a blocking
// Acquire/Release interface to application code and runs every step on its
// site's loop (see host), in the order its inputs reached the site. It
// stamps its lock's name onto everything it sends and observes, and the
// membership stage onto what it sends: the state machine sees neither.
type Node struct {
	name string // the lock's resource name
	site mutex.Site
	host *host // the site's loop, sender, sink, stage and delivery hook

	waiter    chan error // pending Acquire's reply channel, loop-owned
	abandoned bool       // loop-owned: the pending request's Acquire gave up; exit on entry
	retiring  bool       // loop-owned: departing the cluster, no new acquires

	queue []mutex.Envelope // loop-owned: apply's work queue, reused from step to step
}

// newNode makes lock name's instance at the site h hosts; h is its one
// caller. The instance sends through h's sender, each step's envelopes
// together, stamped with name and h's stage; envelopes addressed to this
// site short-circuit internally.
func newNode(name string, site mutex.Site, h *host) *Node {
	return &Node{name: name, site: site, host: h}
}

// ID returns the hosted site's identifier.
func (n *Node) ID() mutex.SiteID { return n.site.ID() }

// Acquire blocks until the site holds the critical section, the context is
// cancelled, or the node closes. A context already done issues no request.
// If the context is cancelled after the request was issued, the eventually
// acquired critical section is released automatically.
func (n *Node) Acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return n.call(ctx, item{op: opAcquire})
}

// call queues it with a pooled reply channel and waits for the loop's
// answer, the site closing or ctx ending. It returns ErrClosed when the
// site shut down before (or while) it could run.
func (n *Node) call(ctx context.Context, it item) error {
	h := n.host
	it.node, it.resp = n, h.respPool.Get().(chan error)
	if !h.inbox.put(it) {
		h.respPool.Put(it.resp)
		return ErrClosed
	}
	select {
	case err := <-it.resp:
		h.respPool.Put(it.resp)
		return err
	case <-ctx.Done():
		// Only an acquire waits on a context. The protocol has no cancel
		// message: the loop hands the grant straight back when it lands
		// (see abandon), and takes resp over.
		h.inbox.put(item{node: n, op: opAbandon, resp: it.resp})
		return ctx.Err()
	case <-h.doneC:
		return ErrClosed
	}
}

// TryAcquire attempts to enter the critical section within the context's
// lifetime and reports whether it succeeded. Unlike Acquire, running out of
// time is not an error: if ctx is done before the grant arrives TryAcquire
// returns (false, nil) and the abandoned request is wound down exactly as in
// Acquire — when the quorum's grant eventually lands it is handed straight
// back. Callers bound the wait with a context deadline; an already-expired
// context makes TryAcquire a pure local probe that issues no request.
// Errors are reserved for real failures: ErrBusy when an acquire is already
// held or in flight, and ErrClosed after shutdown.
func (n *Node) TryAcquire(ctx context.Context) (bool, error) {
	switch err := n.Acquire(ctx); {
	case err == nil:
		return true, nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return false, nil
	default:
		return false, err
	}
}

// Release exits the critical section. It returns ErrNotHeld when the site
// does not currently hold the CS (no matching successful Acquire), and
// ErrClosed after shutdown.
func (n *Node) Release() error { return n.call(context.Background(), item{op: opRelease}) }

// Dump renders the site's protocol state for diagnostics (liveness
// watchdogs, operator tooling). The render runs on the site's loop — the
// only place the state machine may be touched — so it is safe to call
// concurrently with protocol traffic.
func (n *Node) Dump() string {
	var s string
	if err := n.onLoop(func() { s = siteDebug(n.site) }); err != nil {
		return fmt.Sprintf("site %d: node closed", n.site.ID())
	}
	return s
}

// observe emits one lifecycle event; callers must have checked n.host.sink.
func (n *Node) observe(t obs.EventType, peer mutex.SiteID, kind string) {
	n.host.sink(obs.Event{Type: t, Resource: n.name, Site: n.site.ID(), Peer: peer, Kind: kind, Time: obs.Now()})
}

// step runs one of the node's queued inputs on the site's loop.
func (n *Node) step(it *item) {
	switch it.op {
	case opDeliver:
		n.deliver(it.env)
		if d := n.host.delivered; d != nil {
			d(it.env)
		}
	case opAcquire:
		n.acquire(it.resp)
	case opRelease:
		it.resp <- n.exit()
	case opAbandon:
		n.abandon(it.resp)
	case opControl:
		it.fn()
		it.resp <- nil
	}
}

// acquire issues a request whose entry answers resp, or answers at once why
// it cannot.
func (n *Node) acquire(resp chan error) {
	if n.retiring {
		resp <- ErrClosed
		return
	}
	if n.waiter != nil || n.site.InCS() || n.site.Pending() {
		resp <- ErrBusy
		return
	}
	n.waiter = resp
	// Request() first, observe second: the event can then carry the
	// request's logical timestamp. apply follows, so the event still
	// precedes every EventSend of the request wave.
	out := n.site.Request()
	if n.host.sink != nil {
		e := obs.Event{Type: obs.EventRequest, Resource: n.name, Site: n.site.ID(), Peer: n.site.ID(), Time: obs.Now()}
		if ts, ok := n.site.(mutex.TimestampedSite); ok {
			if reqTS, pending := ts.RequestTimestamp(); pending {
				e.ReqTS = reqTS
			}
		}
		n.host.sink(e)
	}
	n.apply(out)
}

// exit leaves the critical section, or reports ErrNotHeld.
func (n *Node) exit() error {
	if !n.site.InCS() {
		return ErrNotHeld
	}
	if n.host.sink != nil {
		n.observe(obs.EventExit, n.site.ID(), "")
	}
	n.apply(n.site.Exit())
	return nil
}

// abandon winds down the Acquire that handed over resp and stopped waiting;
// its acquire item ran earlier, since one goroutine queued both. A request
// still pending stays in flight and its critical section is exited the
// moment it enters; a grant already sent is handed straight back. resp is
// empty and unreferenced afterwards, so it returns to the pool.
func (n *Node) abandon(resp chan error) {
	if n.waiter == resp {
		n.waiter, n.abandoned = nil, true
	} else if err := <-resp; err == nil {
		_ = n.exit()
	}
	n.host.respPool.Put(resp)
}

// deliver steps the site through one inbound envelope.
func (n *Node) deliver(env mutex.Envelope) {
	if n.host.sink != nil {
		if f, ok := env.Msg.(mutex.FailureMsg); ok {
			n.observe(obs.EventFailure, f.Failed, "")
			n.apply(n.site.Deliver(env))
			n.observe(obs.EventRecovery, f.Failed, "")
			return
		}
	}
	n.apply(n.site.Deliver(env))
}

// onLoop runs fn on the site's loop and waits for it to finish, or returns
// ErrClosed.
func (n *Node) onLoop(fn func()) error {
	return n.call(context.Background(), item{op: opControl, fn: fn})
}

// Reconfigure installs a new membership on the hosted site (see
// mutex.Reconfigurable). The reconcile — withdrawals to departing arbiters,
// requests to joining ones — runs as an ordinary state-machine step on the
// site's loop; a pending Acquire that completes because the new quorum is
// already fully granted is woken exactly as any other entry.
func (n *Node) Reconfigure(m mutex.Membership) error {
	rc, ok := n.site.(mutex.Reconfigurable)
	if !ok {
		return ErrNotReconfigurable
	}
	return n.onLoop(func() {
		n.apply(rc.SetMembership(m))
	})
}

// MembershipSettled reports whether the hosted site's effective req_set is
// the most recently installed one (false while the swap waits behind a held
// critical section). Closed nodes report settled: a stopped machine can no
// longer hold a stale quorum. Non-reconfigurable sites are always settled.
func (n *Node) MembershipSettled() bool {
	rc, ok := n.site.(mutex.Reconfigurable)
	if !ok {
		return true
	}
	settled := true
	if err := n.onLoop(func() { settled = rc.MembershipSettled() }); err != nil {
		return true
	}
	return settled
}

// BeginRetire marks the node as departing: every subsequent Acquire fails
// with ErrClosed while in-flight work continues undisturbed. Used by the
// reconfiguration drain so a leaving site can finish what it holds without
// taking on new work.
func (n *Node) BeginRetire() {
	_ = n.onLoop(func() { n.retiring = true })
}

// Quiesced reports whether the node has no critical section held, no
// request in flight, and no waiting acquirer — the drain condition for
// retiring a departing site. A closed node is quiesced.
func (n *Node) Quiesced() bool {
	quiet := true
	if err := n.onLoop(func() {
		quiet = !n.site.InCS() && !n.site.Pending() && n.waiter == nil
	}); err != nil {
		return true
	}
	return quiet
}

// siteDebug renders one site's protocol state, preferring the rich dump of
// sites that expose one over the generic lifecycle summary.
func siteDebug(s mutex.Site) string {
	if d, ok := s.(interface{ DebugString() string }); ok {
		return d.DebugString()
	}
	return fmt.Sprintf("site %d: inCS=%v pending=%v", s.ID(), s.InCS(), s.Pending())
}

// apply executes one state-machine step's effects: self-addressed envelopes
// run inline (they are local bookkeeping, not network messages), remote ones
// go to the sender as one batch, and a CS entry wakes the pending Acquire.
func (n *Node) apply(out mutex.Output) {
	entered := out.Entered
	// The Output is valid only until the next call on the site, and a
	// self-addressed envelope re-enters it: work on a node-owned copy. The
	// remote envelopes are stamped with the lock and the stage and compacted
	// to the front of the same buffer (the write index never passes the
	// read index).
	q := append(n.queue[:0], out.Send...)
	w := 0
	for i := 0; i < len(q); i++ {
		env := q[i]
		if env.To == n.site.ID() {
			next := n.site.Deliver(env)
			q = append(q, next.Send...)
			entered = entered || next.Entered
			continue
		}
		if n.host.sink != nil {
			n.observe(obs.EventSend, env.To, env.Kind())
		}
		env.Resource, env.Epoch = n.name, n.host.stage.Load()
		q[w] = env
		w++
	}
	n.queue = q
	remote := q[:w]
	// Reliable-channel model: transports retry internally; an error here
	// means the peer is gone, which the failure protocol handles.
	if len(remote) > 0 {
		_ = n.host.sender.SendBatch(remote)
	}
	clear(q) // an idle node must not pin its last step's messages
	if entered {
		if n.host.sink != nil {
			n.observe(obs.EventEnter, n.site.ID(), "")
		}
		switch {
		case n.waiter != nil:
			n.waiter <- nil
			n.waiter = nil
		case n.abandoned:
			n.abandoned = false
			_ = n.exit()
		}
	}
}
