// Package transport runs the mutual exclusion state machines outside the
// simulator: one loop goroutine per site, which steps every lock's machine
// at that site in the order its inputs arrived, with in-process wiring for
// single-binary deployments and a framed TCP transport for real clusters.
// A site's lock instances (Node) take Acquire, Release and envelopes; what
// acts on the whole site — installing a membership, the settle barrier,
// retiring, the drain check, a state dump — is one item on the site's loop
// that walks every instance there, however many locks the site hosts. The
// protocol code is identical to what the simulator drives — only the message
// plumbing differs.
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
	// ErrNotReconfigurable is returned when a membership is installed on a
	// site whose algorithm does not implement mutex.Reconfigurable.
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

// byDestination regroups a batch in place, stably, so that each
// destination's envelopes — not just consecutive ones — form one run, in
// their order and in the order destinations first appear, and hands each
// run to send. Batches are small (a quorum times one step's fan-out), so
// the quadratic regroup stays cheaper than a map. It returns the first
// error send returned, having handed over every run.
func byDestination(envs []mutex.Envelope, send func(dest mutex.SiteID, run []mutex.Envelope) error) error {
	var firstErr error
	for start := 0; start < len(envs); {
		dest := envs[start].To
		end := start + 1
		for k := end; k < len(envs); k++ {
			if envs[k].To != dest {
				continue
			}
			if k != end {
				env := envs[k]
				copy(envs[end+1:k+1], envs[end:k])
				envs[end] = env
			}
			end++
		}
		if err := send(dest, envs[start:end]); err != nil && firstErr == nil {
			firstErr = err
		}
		start = end
	}
	return firstErr
}

// Node is one lock's instance at one site: the site's machine for that
// lock and its pending Acquire. It exposes a blocking Acquire/Release
// interface to application code and runs every step on its site's loop (see
// host), in the order its inputs reached the site. It stamps its lock's name
// onto everything it sends and observes, and the membership stage onto what
// it sends: the state machine sees neither. Whatever concerns the whole site
// — its membership, its departure, its drain, its dump — belongs to the
// host.
type Node struct {
	name string // the lock's resource name
	site mutex.Site
	host *host // the site's loop, sender, sink, stage and delivery hook

	waiter    chan error     // pending Acquire's reply channel, loop-owned
	abandoned bool           // loop-owned: the pending request's Acquire gave up; exit on entry
	born      []mutex.SiteID // crashes recorded at build, told before the first input (host.ready)
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
// acquired critical section is released automatically. A departing site
// refuses every Acquire with ErrClosed.
func (n *Node) Acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return n.host.call(ctx, item{node: n, op: opAcquire})
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
func (n *Node) Release() error {
	return n.host.call(context.Background(), item{node: n, op: opRelease})
}

// observe emits one lifecycle event; callers must have checked n.host.sink.
func (n *Node) observe(t obs.EventType, peer mutex.SiteID, kind string) {
	n.host.sink(obs.Event{Type: t, Resource: n.name, Site: n.site.ID(), Peer: peer, Kind: kind, Time: obs.Now()})
}

// acquire issues a request whose entry answers resp, or answers at once why
// it cannot.
func (n *Node) acquire(resp chan error) {
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

// siteDebug renders one site's protocol state, preferring the rich dump of
// sites that expose one over the generic lifecycle summary.
func siteDebug(s mutex.Site) string {
	if d, ok := s.(interface{ DebugString() string }); ok {
		return d.DebugString()
	}
	return fmt.Sprintf("site %d: inCS=%v pending=%v", s.ID(), s.InCS(), s.Pending())
}

// apply executes one state-machine step's effects: the envelopes, stamped
// in place with the lock and the stage, go to the sender as one batch, and a
// CS entry wakes the pending Acquire. A site addresses none to itself.
func (n *Node) apply(out mutex.Output) {
	h := n.host
	for i := range out.Send {
		env := &out.Send[i]
		if h.sink != nil {
			n.observe(obs.EventSend, env.To, env.Kind())
		}
		env.Resource, env.Epoch = n.name, h.stage.Load()
	}
	// Reliable-channel model: transports retry internally; an error here
	// means the peer is gone, which the failure protocol handles.
	if len(out.Send) > 0 {
		_ = h.sender.SendBatch(out.Send)
	}
	if out.Entered {
		if h.sink != nil {
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
