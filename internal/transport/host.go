package transport

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dqmx/internal/clock"
	"dqmx/internal/mutex"
	"dqmx/internal/obs"
	"dqmx/internal/resource"
)

// host is one site's lock table, the same for both live runtimes: a TCPPeer
// holds one, an in-process Cluster one per site. It maps a name to the
// name's instance and canonical handle, it is the only code that builds a
// lock instance, and it is the only code that tells a site's instances of a
// crash or a membership stage, so the two rules a lock first used late
// depends on are stated here once:
//
//   - every instance runs the membership recorded at its site, and
//   - every instance processes failure(f) for each site f recorded dead
//     there (§6), in ascending order.
//
// Its callers record before they sweep (dead.add before announce, adopt
// before install), and build runs under the build lock, which each sweep's
// walk (nodes) takes too. So an instance built while a sweep runs
// either reads the record at birth or is already in the table when the
// sweep walks it: none misses both.
//
// It is also the site's one sequential process: one loop goroutine (run)
// steps the site's inputs in arrival order; the queue is filled on the
// caller's goroutine and never blocks. A frame off the wire goes through the
// site's reliable layer, when the wire can lose, and its instance steps
// through what comes out, in one step: the layer is the loop's alone. The
// calls that act on the whole site — install, settled, retire, quiesced and
// dump — each queue one control item, which walks every instance on the
// loop. A departing site (retire) refuses every Acquire, on whichever
// instance, built before or after it began to leave.
type host struct {
	self      mutex.SiteID
	factory   func(name string) (mutex.Site, error)
	sender    BatchSender // the wire, or the reliable layer over it
	sink      obs.Sink
	stage     *atomic.Uint64
	dead      *deadSet // shared by a cluster's hosts
	delivered func(env mutex.Envelope)
	node      *Node // the default resource's instance, set by open

	inbox    mailbox       // the site's inputs, in arrival order
	batch    []item        // loop-owned: the items being stepped
	retiring bool          // loop-owned: departing the cluster, no new acquires
	routed   *entry        // loop-owned: the instance route stepped last
	doneC    chan struct{} // closed when the loop has exited

	// rel is the loop-owned reliable layer over a wire that can lose (nil
	// over a plain cluster's mailboxes); tick paces its flush passes, parked
	// while the last pass left nothing to do.
	rel    *reliable
	tick   clock.Timer
	parked bool

	// respPool recycles the one-shot reply channels of Acquire and Release.
	// A channel goes back only once its one reply was read (or before the
	// loop saw it), so a pooled channel is empty and unreferenced. Each host
	// keeps its own, so a channel never outlives its deployment (a
	// testing/synctest bubble's included).
	respPool sync.Pool

	// Every live workload runs one lock or a few, looked up on every
	// inbound envelope and built once each, so reads of entries take no
	// lock and builds take buildMu.
	entries sync.Map   // name → *entry
	buildMu sync.Mutex // held while an instance is built, and by nodes' snapshot
	closed  bool       // guarded by buildMu

	mu     sync.Mutex
	member *mutex.Membership // the membership in force here; nil: the factory's own quorum
}

// op is what a queued item asks of its instance, or of the site.
type op uint8

const (
	opFrame   op = iota // env arrived off the wire
	opAcquire           // issue a request; its entry answers resp
	opRelease           // exit the critical section, answering resp
	opAbandon           // the Acquire answered on resp stopped waiting
	opControl           // run fn on the site, answering resp unless it is nil
	opSend              // send env from the site
	opReady             // nothing more: the step tells node of the crashes recorded at its build
)

// item is one input of a site: a frame off the wire, an envelope to send, a
// call for one instance, or a control call for the whole site (node is nil).
type item struct {
	node *Node
	op   op
	env  mutex.Envelope // opFrame, opSend
	resp chan error     // opAcquire, opRelease, opAbandon, opControl
	fn   func()         // opControl
}

// mailbox is an unbounded FIFO of a site's items: the reliable,
// order-preserving "network buffer" in front of its loop. Unboundedness
// mirrors the system model (reliable channels, no backpressure) and
// prevents distributed deadlock between loops sending to each other. A
// closed mailbox drops what it is handed instead of keeping it.
type mailbox struct {
	mu     sync.Mutex
	items  []item
	closed bool
	notify chan struct{} // one pending wake-up at most
}

// put queues one item; false means the mailbox is closed and dropped it.
func (m *mailbox) put(it item) bool {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	m.items = append(m.items, it)
	m.mu.Unlock()
	m.wake()
	return true
}

// putFrames queues frames off the wire, in order, under one lock; false
// means the mailbox is closed and dropped them.
func (m *mailbox) putFrames(envs []mutex.Envelope) bool {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	for _, env := range envs {
		m.items = append(m.items, item{env: env})
	}
	m.mu.Unlock()
	m.wake()
	return true
}

func (m *mailbox) wake() {
	select {
	case m.notify <- struct{}{}:
	default:
	}
}

// drain hands the queued items to the caller and takes the caller's
// previous batch back as the next queue's backing array, so the two slices
// double-buffer and steady-state traffic grows neither. open is false once
// the mailbox is closed.
func (m *mailbox) drain(prev []item) (items []item, open bool) {
	clear(prev) // a recycled batch must not pin the messages it carried
	m.mu.Lock()
	items, open = m.items, !m.closed
	m.items = prev[:0]
	m.mu.Unlock()
	return items, open
}

// close discards the queue, makes every later put a no-op and wakes the
// reader to see it.
func (m *mailbox) close() {
	m.mu.Lock()
	m.closed, m.items = true, nil
	m.mu.Unlock()
	m.wake()
}

// run is the site's loop: it steps every queued item, in order, until the
// mailbox closes, and runs the reliable layer's flush pass each time tick
// fires: every relTick while the layer has work, never while it is idle.
func (h *host) run() {
	defer close(h.doneC)
	var tick <-chan time.Time
	for {
		if h.tick != nil {
			tick = h.tick.C()
		}
		select {
		case <-h.inbox.notify:
			var open bool
			if h.batch, open = h.inbox.drain(h.batch); !open {
				if h.tick != nil {
					h.tick.Stop()
				}
				return
			}
			for i := range h.batch {
				h.step(&h.batch[i])
			}
		case <-tick:
			if h.rel.flush() {
				h.tick.Reset(relTick)
			} else {
				h.parked = true
			}
		}
	}
}

// relWork re-arms a parked flush timer: the layer has just taken on a
// retransmission to watch or an ack to owe.
func (h *host) relWork() {
	if h.parked {
		h.parked = false
		h.tick.Reset(relTick)
	}
}

// step runs one queued item on the site's loop.
func (h *host) step(it *item) {
	n := it.node
	if n != nil {
		h.ready(n)
	}
	switch it.op {
	case opFrame:
		if h.rel != nil {
			h.rel.Receive(it.env)
		} else {
			h.route(it.env)
		}
	case opSend:
		_ = h.sender.Send(it.env)
	case opAcquire:
		if h.retiring {
			it.resp <- ErrClosed
			return
		}
		n.acquire(it.resp)
	case opRelease:
		it.resp <- n.exit()
	case opAbandon:
		n.abandon(it.resp)
	case opControl:
		it.fn()
		if it.resp != nil {
			it.resp <- nil
		}
	}
}

// route steps the instance env's Resource names through it, building the
// instance on first use (a remote site may open a lock this site has never
// touched); a run of one lock's frames looks the name up once. An envelope
// whose resource fails CheckName is dropped.
func (h *host) route(env mutex.Envelope) {
	e := h.routed
	if e == nil || e.node.name != env.Resource {
		if e, _ = h.get(env.Resource); e == nil {
			return
		}
		h.routed = e // an entry stays its name's until the host closes
	}
	h.ready(e.node)
	h.deliver(e.node, env)
}

// deliver steps n through env and tells the delivery hook.
func (h *host) deliver(n *Node, env mutex.Envelope) {
	n.deliver(env)
	if h.delivered != nil {
		h.delivered(env)
	}
}

// ready tells n, before its first input, of the crashes recorded when it
// was built, in ascending order.
func (h *host) ready(n *Node) {
	for len(n.born) > 0 {
		f := n.born[0]
		n.born = n.born[1:]
		n.deliver(failureEnvelope(n.name, h.self, f))
	}
}

// post queues fn on the site's loop without waiting for it.
func (h *host) post(fn func()) {
	h.inbox.put(item{op: opControl, fn: fn})
}

// send queues env to leave from the site's loop, through the site's sender.
func (h *host) send(env mutex.Envelope) error {
	if !h.inbox.put(item{op: opSend, env: env}) {
		return ErrClosed
	}
	return nil
}

// call queues it with a pooled reply channel and waits for the loop's
// answer, the site closing or ctx ending. It returns ErrClosed when the
// site shut down before (or while) it could run.
func (h *host) call(ctx context.Context, it item) error {
	it.resp = h.respPool.Get().(chan error)
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
		// (see Node.abandon), and takes resp over.
		h.inbox.put(item{node: it.node, op: opAbandon, resp: it.resp})
		return ctx.Err()
	case <-h.doneC:
		return ErrClosed
	}
}

// onLoop runs fn on the site's loop as one control item and waits for it to
// finish, or returns ErrClosed.
func (h *host) onLoop(fn func()) error {
	return h.call(context.Background(), item{op: opControl, fn: fn})
}

// entry is one lock's instance at a site and the handle driving it.
type entry struct {
	node *Node
	lock *resource.Lock
}

// get returns name's entry, building its instance and handle on first use.
// The name is checked only on a miss, so once; the default resource is the
// host's own and skips the check.
func (h *host) get(name string) (*entry, error) {
	if e, ok := h.entries.Load(name); ok {
		return e.(*entry), nil
	}
	if name != resource.Default {
		if err := resource.CheckName(name); err != nil {
			return nil, err
		}
	}
	h.buildMu.Lock()
	defer h.buildMu.Unlock()
	if e, ok := h.entries.Load(name); ok {
		return e.(*entry), nil
	}
	if h.closed {
		return nil, resource.ErrClosed
	}
	node, err := h.build(name)
	if err != nil {
		return nil, err
	}
	e := &entry{node: node, lock: resource.NewLock(name, node)}
	h.entries.Store(name, e)
	return e, nil
}

// lock returns the canonical handle for the named lock, building its
// instance on first use. Two calls with one name return the same *Lock, so
// local contention for a name queues on the handle instead of surfacing as
// the protocol's busy error. The empty name is rejected: the default
// resource belongs to the legacy single-mutex API.
func (h *host) lock(name string) (*resource.Lock, error) {
	if name == resource.Default {
		return nil, resource.CheckName(name)
	}
	e, err := h.get(name)
	if err != nil {
		return nil, err
	}
	return e.lock, nil
}

// inject queues one frame off the wire for the site's loop.
func (h *host) inject(env mutex.Envelope) error {
	return h.injectBatch([]mutex.Envelope{env})
}

// injectBatch queues frames off the wire for the site's loop, in order,
// under one mailbox lock; the loop resolves each one's instance (route). It
// fails only on a closed site, which drops them.
func (h *host) injectBatch(envs []mutex.Envelope) error {
	if !h.inbox.putFrames(envs) {
		return resource.ErrClosed
	}
	return nil
}

// nodes is a snapshot of the instances sorted by name, taken under the build
// lock, so every walk and dump of a site's locks runs in one order.
func (h *host) nodes() []*Node {
	var nodes []*Node
	h.buildMu.Lock()
	h.entries.Range(func(_, e any) bool {
		nodes = append(nodes, e.(*entry).node)
		return true
	})
	h.buildMu.Unlock()
	slices.SortFunc(nodes, func(a, b *Node) int { return strings.Compare(a.name, b.name) })
	return nodes
}

// resources lists every instantiated resource name, sorted.
func (h *host) resources() []string {
	var names []string
	for _, n := range h.nodes() {
		names = append(names, n.name)
	}
	return names
}

// close stops the site's loop and waits for it to exit, and fails the names
// first asked for later with resource.ErrClosed. Inputs still queued, and
// any that arrive later, are dropped. It is idempotent.
func (h *host) close() {
	h.buildMu.Lock()
	h.closed = true
	h.buildMu.Unlock()
	h.inbox.close()
	<-h.doneC
}

// deadSet is the sites recorded crashed, until revived: one per Cluster,
// shared by all its hosts, and one per TCPPeer.
type deadSet struct {
	mu  sync.Mutex
	ids map[mutex.SiteID]bool
}

func newDeadSet() *deadSet { return &deadSet{ids: make(map[mutex.SiteID]bool)} }

// add records that site f crashed.
func (d *deadSet) add(f mutex.SiteID) {
	d.mu.Lock()
	d.ids[f] = true
	d.mu.Unlock()
}

// revive forgets a crash record: instances built from here on are no longer
// told that id is dead (a site rejoining under its old ID).
func (d *deadSet) revive(id mutex.SiteID) {
	d.mu.Lock()
	delete(d.ids, id)
	d.mu.Unlock()
}

// sorted lists the sites recorded crashed, ascending, so every instance
// learns of them in the same order on every run.
func (d *deadSet) sorted() []mutex.SiteID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Sorted(maps.Keys(d.ids))
}

// newHost builds site self's host over a factory of site machines. Its
// instances send through wire, stamped with the resource name and the stage
// read from stage, and report to sink; they are born told of every site in
// dead. A wire that can lose comes with a clock clk, and the host runs a
// reliable layer over it, delivering to up (nil: route). delivered, which
// may be nil, is called on the loop after an instance steps through an
// inbound envelope. It starts the site's loop; open must be called before
// the host is used, and close stops the loop.
func newHost(self mutex.SiteID, factory func(name string) (mutex.Site, error), wire BatchSender,
	clk clock.Clock, up func(env mutex.Envelope), sink obs.Sink, stage *atomic.Uint64, dead *deadSet, delivered func(env mutex.Envelope)) *host {
	h := &host{
		self:      self,
		factory:   factory,
		sender:    wire,
		sink:      sink,
		stage:     stage,
		dead:      dead,
		delivered: delivered,
		inbox:     mailbox{notify: make(chan struct{}, 1)},
		doneC:     make(chan struct{}),
	}
	h.respPool.New = func() any { return make(chan error, 1) }
	if clk != nil {
		if up == nil {
			up = h.route
		}
		h.rel = newReliable(wire, up, h.relWork, sink, clk)
		for _, f := range dead.sorted() {
			h.rel.PeerFailed(f) // a site joining late: no streams with the crashed
		}
		h.sender = h.rel
		h.tick = clk.NewTimer(relTick)
	}
	go h.run()
	return h
}

// open builds the default resource's instance, which validates the factory
// and backs the legacy Node interface. On error the host is closed.
func (h *host) open() error {
	e, err := h.get(resource.Default)
	if err != nil {
		h.close()
		return err
	}
	h.node = e.node
	return nil
}

// build makes name's instance, under the build lock: the factory's
// machine, moved onto the recorded membership, wrapped as a node that the
// loop tells of every recorded crash before its first input, or at the item
// build queues if none comes first (ready). The machine is fresh, so the
// membership swap sends nothing.
func (h *host) build(name string) (*Node, error) {
	site, err := h.factory(name)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	member := h.member
	h.mu.Unlock()
	if member != nil {
		rc, ok := site.(mutex.Reconfigurable)
		if !ok {
			return nil, fmt.Errorf("transport: site %d resource %q at stage %d: %w", h.self, name, member.Stage, ErrNotReconfigurable)
		}
		rc.SetMembership(*member)
	}
	node := newNode(name, site, h)
	if node.born = h.dead.sorted(); len(node.born) > 0 {
		h.inbox.put(item{node: node, op: opReady})
	}
	return node, nil
}

// failureEnvelope is the failure(f) notification a site's instance of a
// resource receives from its own failure detector.
func failureEnvelope(name string, self, failed mutex.SiteID) mutex.Envelope {
	return mutex.Envelope{Resource: name, From: self, To: self, Msg: mutex.FailureMsg{Failed: failed}}
}

// announce tells every instance that site f crashed, so each lock's §6
// recovery rebuilds its quorum around f, after the reliable layer has torn
// down f's streams: one item on the site's loop. The caller has recorded f
// in the host's dead set, for the instances built from here on.
func (h *host) announce(f mutex.SiteID) {
	h.post(func() {
		if h.rel != nil {
			h.rel.PeerFailed(f)
		}
		for _, n := range h.nodes() {
			h.ready(n)
			h.deliver(n, failureEnvelope(n.name, h.self, f))
		}
	})
}

// peerFailed queues, on the loop, the reliable layer's teardown of every
// stream with site f: retransmission at it stops, and what it still sends
// is dropped.
func (h *host) peerFailed(f mutex.SiteID) {
	if h.rel != nil {
		h.post(func() { h.rel.PeerFailed(f) })
	}
}

// adopt records the membership every instance built from here on runs.
func (h *host) adopt(m mutex.Membership) {
	h.mu.Lock()
	h.member = &m
	h.mu.Unlock()
}

// install moves every instance onto m, in one step of the site's loop; the
// caller has adopted m first. The reconcile of each instance — withdrawals
// to departing arbiters, requests to joining ones — is an ordinary step of
// its machine, and a pending Acquire that completes because the new quorum
// is already fully granted is woken as any other entry. A closed site is
// skipped: a stopped machine holds no quorum. It returns the first error,
// having moved every instance it can.
func (h *host) install(m mutex.Membership) error {
	var firstErr error
	_ = h.onLoop(func() {
		for _, n := range h.nodes() {
			h.ready(n)
			rc, ok := n.site.(mutex.Reconfigurable)
			if !ok {
				if firstErr == nil {
					firstErr = fmt.Errorf("transport: reconfigure site %d resource %q: %w", h.self, n.name, ErrNotReconfigurable)
				}
				continue
			}
			n.apply(rc.SetMembership(m))
		}
	})
	return firstErr
}

// settled reports whether every instance's effective req_set is the most
// recently installed one (false while a swap waits behind a held critical
// section). An instance whose machine does not reconfigure counts as
// settled.
func (h *host) settled() bool {
	return h.every(func(n *Node) bool {
		rc, ok := n.site.(mutex.Reconfigurable)
		return !ok || rc.MembershipSettled()
	})
}

// retire marks the site as departing: from the next step on, every Acquire
// at it fails with ErrClosed, on an instance built before or after, while
// work in flight continues undisturbed. The reconfiguration drain uses it so
// a leaving site finishes what it holds without taking on new work.
func (h *host) retire() {
	_ = h.onLoop(func() { h.retiring = true })
}

// quiesced reports whether no instance holds the critical section, has a
// request in flight or an Acquire waiting — the drain condition for closing
// a departing site.
func (h *host) quiesced() bool {
	return h.every(func(n *Node) bool {
		return !n.site.InCS() && !n.site.Pending() && n.waiter == nil
	})
}

// drained reports whether the site's reliable layer has every envelope the
// site sent acknowledged, read in one step of the site's loop. A site with no
// layer, or closed, is drained.
func (h *host) drained() bool {
	all := true
	if h.rel != nil {
		_ = h.onLoop(func() { all = h.rel.Drained() })
	}
	return all
}

// every reports whether ok holds for every instance, all read in one step
// of the site's loop. A closed site reports true: a stopped machine holds no
// quorum and no critical section.
func (h *host) every(ok func(n *Node) bool) bool {
	all := true
	_ = h.onLoop(func() {
		for _, n := range h.nodes() {
			h.ready(n)
			if !ok(n) {
				all = false
				return
			}
		}
	})
	return all
}

// dump appends one line of protocol state per instance, all rendered in one
// step of the site's loop, so it is safe under live traffic.
func (h *host) dump(b *strings.Builder) {
	nodes := h.nodes()
	lines := make([]string, len(nodes))
	if h.onLoop(func() {
		for i, n := range nodes {
			h.ready(n)
			lines[i] = siteDebug(n.site)
		}
	}) != nil {
		for i := range lines {
			lines[i] = fmt.Sprintf("site %d: node closed", h.self)
		}
	}
	for i, n := range nodes {
		name := n.name
		if name == resource.Default {
			name = "(default)"
		}
		fmt.Fprintf(b, "[%s] %s\n", name, lines[i])
	}
}
