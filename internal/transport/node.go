// Package transport runs the mutual exclusion state machines outside the
// simulator: one goroutine per site, with in-process channel wiring for
// single-binary deployments and a framed TCP transport for real clusters.
// The protocol code is identical to what the simulator drives — only the
// message plumbing differs.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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

// mailbox is an unbounded FIFO of envelopes: the reliable, order-preserving
// "network buffer" in front of each node. Unboundedness mirrors the system
// model (reliable channels, no backpressure) and prevents distributed
// deadlock between node loops sending to each other. A stopped node's
// mailbox is closed: it drops what it is handed instead of keeping it.
type mailbox struct {
	mu     sync.Mutex
	items  []mutex.Envelope
	closed bool
	notify chan struct{}
}

func newMailbox() *mailbox {
	return &mailbox{notify: make(chan struct{}, 1)}
}

func (m *mailbox) put(env mutex.Envelope) { m.putAll([]mutex.Envelope{env}) }

func (m *mailbox) putAll(envs []mutex.Envelope) {
	m.mu.Lock()
	if m.closed || len(envs) == 0 {
		m.mu.Unlock()
		return
	}
	m.items = append(m.items, envs...)
	m.mu.Unlock()
	select {
	case m.notify <- struct{}{}:
	default:
	}
}

// drain hands the queued envelopes to the caller and takes the caller's
// previous batch back as the next queue's backing array, so the two slices
// double-buffer and steady-state traffic grows neither.
func (m *mailbox) drain(prev []mutex.Envelope) []mutex.Envelope {
	clear(prev) // a recycled batch must not pin the messages it carried
	m.mu.Lock()
	items := m.items
	m.items = prev[:0]
	m.mu.Unlock()
	return items
}

// close discards the queue and makes every later put a no-op.
func (m *mailbox) close() {
	m.mu.Lock()
	m.closed, m.items = true, nil
	m.mu.Unlock()
}

// Node hosts one site's machine for one lock on a dedicated goroutine and
// exposes a blocking Acquire/Release interface to application code. It
// stamps its lock's name onto everything it sends and observes, and the
// membership stage onto what it sends: the state machine sees neither.
type Node struct {
	name   string // the lock's resource name
	site   mutex.Site
	sender BatchSender
	stage  *atomic.Uint64 // the host's membership stage
	inbox  *mailbox
	sink   obs.Sink // nil when observability is disabled
	// delivered, when non-nil, is called on the loop goroutine after the
	// site has stepped through each inbound envelope.
	delivered func(env mutex.Envelope)

	acquireC chan chan error
	releaseC chan chan error
	// respPool recycles the one-shot reply channels of Acquire and Release.
	// The loop sends exactly one reply per channel it is handed, and a
	// channel goes back only after that reply was received (or before the
	// loop ever saw it), so a pooled channel is always empty and
	// unreferenced. Each node keeps its own, so a channel never outlives the
	// cluster it was made for (a testing/synctest bubble's included).
	respPool sync.Pool
	ctrlC    chan func() // membership control, run on the loop goroutine
	stopOnce sync.Once
	stopC    chan struct{}
	doneC    chan struct{}

	waiter   chan error // pending Acquire responder, loop-owned
	retiring bool       // loop-owned: departing the cluster, no new acquires

	// Loop-owned buffers, reused from step to step: the inbox batch being
	// processed and apply's work queue.
	batch []mutex.Envelope
	queue []mutex.Envelope
}

// newNode starts the event loop of lock name's machine at one site; the
// site's host is its one caller. sender carries envelopes addressed to other
// sites, each step's together, stamped with name and the stage read from
// stage; envelopes addressed to this site short-circuit internally. A nil
// sink costs exactly one nil check per potential event. delivered, which may
// be nil, observes each inbound envelope once the site has processed it.
func newNode(name string, site mutex.Site, sender BatchSender, sink obs.Sink, stage *atomic.Uint64, delivered func(env mutex.Envelope)) *Node {
	n := &Node{
		name:      name,
		site:      site,
		sender:    sender,
		stage:     stage,
		inbox:     newMailbox(),
		sink:      sink,
		delivered: delivered,
		acquireC:  make(chan chan error),
		releaseC:  make(chan chan error),
		ctrlC:     make(chan func()),
		stopC:     make(chan struct{}),
		doneC:     make(chan struct{}),
	}
	n.respPool.New = func() any { return make(chan error, 1) }
	go n.run()
	return n
}

// ID returns the hosted site's identifier.
func (n *Node) ID() mutex.SiteID { return n.site.ID() }

// Inject delivers an incoming envelope (called by transports).
func (n *Node) Inject(env mutex.Envelope) { n.inbox.put(env) }

// InjectBatch delivers several incoming envelopes in order under one mailbox
// lock (called by batching transports).
func (n *Node) InjectBatch(envs []mutex.Envelope) { n.inbox.putAll(envs) }

// Acquire blocks until the site holds the critical section, the context is
// cancelled, or the node closes. If the context is cancelled after the
// request was issued, the eventually acquired critical section is released
// automatically.
func (n *Node) Acquire(ctx context.Context) error {
	resp := n.respPool.Get().(chan error)
	select {
	case n.acquireC <- resp:
	case <-ctx.Done():
		n.respPool.Put(resp)
		return ctx.Err()
	case <-n.doneC:
		n.respPool.Put(resp)
		return ErrClosed
	}
	select {
	case err := <-resp:
		n.respPool.Put(resp)
		return err
	case <-ctx.Done():
		// The protocol has no cancel message: wait out the grant in the
		// background and hand it straight back. The node may close before
		// the grant ever arrives, so also watch doneC or this goroutine
		// leaks.
		go func() {
			select {
			case err := <-resp:
				n.respPool.Put(resp)
				if err == nil {
					_ = n.Release()
				}
			case <-n.doneC:
			}
		}()
		return ctx.Err()
	case <-n.doneC:
		return ErrClosed
	}
}

// TryAcquire attempts to enter the critical section within the context's
// lifetime and reports whether it succeeded. Unlike Acquire, running out of
// time is not an error: if ctx is done before the grant arrives TryAcquire
// returns (false, nil) and the abandoned request is wound down exactly as in
// Acquire — when the quorum's grant eventually lands it is handed straight
// back. Callers bound the wait with a context deadline; an already-expired
// context makes TryAcquire a pure local-state probe. Errors are reserved for
// real failures: ErrBusy when an acquire is already held or in flight, and
// ErrClosed after shutdown.
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
	resp := n.respPool.Get().(chan error)
	select {
	case n.releaseC <- resp:
		err := <-resp
		n.respPool.Put(resp)
		return err
	case <-n.doneC:
		n.respPool.Put(resp)
		return ErrClosed
	}
}

// Dump renders the site's protocol state for diagnostics (liveness
// watchdogs, operator tooling). The render runs on the node's own loop
// goroutine — the only place the state machine may be touched — so it is
// safe to call concurrently with protocol traffic.
func (n *Node) Dump() string {
	var s string
	if err := n.onLoop(func() { s = siteDebug(n.site) }); err != nil {
		return fmt.Sprintf("site %d: node closed", n.site.ID())
	}
	return s
}

// Close stops the node's event loop and waits for it to exit. Envelopes
// still queued, and any that arrive later, are dropped.
func (n *Node) Close() {
	n.stopOnce.Do(func() {
		n.inbox.close()
		close(n.stopC)
	})
	<-n.doneC
}

// observe emits one lifecycle event; callers must have checked n.sink.
func (n *Node) observe(t obs.EventType, peer mutex.SiteID, kind string) {
	n.sink(obs.Event{Type: t, Resource: n.name, Site: n.site.ID(), Peer: peer, Kind: kind, Time: obs.Now()})
}

func (n *Node) run() {
	defer close(n.doneC)
	for {
		select {
		case <-n.inbox.notify:
			n.batch = n.inbox.drain(n.batch)
			for _, env := range n.batch {
				n.deliver(env)
				if n.delivered != nil {
					n.delivered(env)
				}
			}
		case resp := <-n.acquireC:
			if n.retiring {
				resp <- ErrClosed
				continue
			}
			if n.waiter != nil || n.site.InCS() || n.site.Pending() {
				resp <- ErrBusy
				continue
			}
			n.waiter = resp
			// Request() first, observe second: the event can then carry the
			// request's logical timestamp. apply follows, so the event still
			// precedes every EventSend of the request wave.
			out := n.site.Request()
			if n.sink != nil {
				e := obs.Event{Type: obs.EventRequest, Resource: n.name, Site: n.site.ID(), Peer: n.site.ID(), Time: obs.Now()}
				if ts, ok := n.site.(mutex.TimestampedSite); ok {
					if reqTS, pending := ts.RequestTimestamp(); pending {
						e.ReqTS = reqTS
					}
				}
				n.sink(e)
			}
			n.apply(out)
		case resp := <-n.releaseC:
			if !n.site.InCS() {
				resp <- ErrNotHeld
				continue
			}
			if n.sink != nil {
				n.observe(obs.EventExit, n.site.ID(), "")
			}
			n.apply(n.site.Exit())
			resp <- nil
		case fn := <-n.ctrlC:
			fn()
		case <-n.stopC:
			return
		}
	}
}

// deliver steps the site through one inbound envelope.
func (n *Node) deliver(env mutex.Envelope) {
	if n.sink != nil {
		if f, ok := env.Msg.(mutex.FailureMsg); ok {
			n.observe(obs.EventFailure, f.Failed, "")
			n.apply(n.site.Deliver(env))
			n.observe(obs.EventRecovery, f.Failed, "")
			return
		}
	}
	n.apply(n.site.Deliver(env))
}

// onLoop runs fn on the node's loop goroutine and waits for it to finish.
// It returns ErrClosed when the node shut down before (or while) fn could
// run — the loop exiting between enqueue and execution included.
func (n *Node) onLoop(fn func()) error {
	done := make(chan struct{})
	wrapped := func() {
		fn()
		close(done)
	}
	select {
	case n.ctrlC <- wrapped:
	case <-n.doneC:
		return ErrClosed
	}
	select {
	case <-done:
		return nil
	case <-n.doneC:
		return ErrClosed
	}
}

// Reconfigure installs a new membership on the hosted site (see
// mutex.Reconfigurable). The reconcile — withdrawals to departing arbiters,
// requests to joining ones — runs as an ordinary state-machine step on the
// node's loop; a pending Acquire that completes because the new quorum is
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
		if n.sink != nil {
			n.observe(obs.EventSend, env.To, env.Kind())
		}
		env.Resource, env.Epoch = n.name, n.stage.Load()
		q[w] = env
		w++
	}
	n.queue = q
	remote := q[:w]
	// Reliable-channel model: transports retry internally; an error here
	// means the peer is gone, which the failure protocol handles.
	if len(remote) > 0 {
		_ = n.sender.SendBatch(remote)
	}
	clear(q) // an idle node must not pin its last step's messages
	if entered {
		if n.sink != nil {
			n.observe(obs.EventEnter, n.site.ID(), "")
		}
		if n.waiter != nil {
			n.waiter <- nil
			n.waiter = nil
		}
	}
}
