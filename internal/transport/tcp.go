package transport

import (
	"bufio"
	"fmt"
	"maps"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"dqmx/internal/clock"
	"dqmx/internal/mutex"
	"dqmx/internal/obs"
	"dqmx/internal/resource"
	"dqmx/internal/wire"
)

// TCPConfig configures a TCP peer.
type TCPConfig struct {
	// Self is the hosted site's identifier.
	Self mutex.SiteID
	// Factory builds this site's machine for a resource. It is called once
	// per resource name — eagerly for the default resource, lazily for
	// named locks (on first Lock or first inbound envelope).
	Factory func(name string) (mutex.Site, error)
	// ListenAddr is the address to listen on for inbound protocol traffic.
	ListenAddr string
	// Peers maps every other site to its listen address. The book may hold
	// more sites than the current coterie uses: a deployment that plans to
	// grow lists the joiners' addresses from the start.
	Peers map[mutex.SiteID]string
	// N is the protocol cluster size. Zero means len(Peers)+1 — right only
	// when the address book holds exactly the current members.
	N int
	// Metrics, when non-nil, aggregates this peer's events.
	Metrics *obs.Metrics
	// Observer, when non-nil, receives the raw event stream.
	Observer obs.Sink
	// Policy bounds named-lock resource names.
	Policy resource.Policy
	// Wire configures the byte layer: link delay.
	Wire WireConfig
	// clock times the peer and its parts (nil: clock.Real). Test-only.
	clock clock.Clock
}

// TCPPeer hosts one site of a cluster spread across processes or machines
// and multiplexes any number of named locks over it. Envelopes travel as
// wire-v1 frames (internal/wire), behind a per-connection handshake, over one
// outbound TCP connection per destination; a
// dedicated writer goroutine per destination preserves the protocol's
// per-channel FIFO requirement and coalesces envelopes queued by different
// resources and different destinations' interleavings into one buffered
// write, so adding locks does not multiply syscalls. Message types register
// themselves with internal/wire when their protocol package is imported —
// there is no separate registration step.
type TCPPeer struct {
	self     mutex.SiteID
	manager  *resource.Manager
	node     *Node     // default-resource instance, kept for the legacy Node API
	rel      *reliable // the reliable-delivery sublayer over the raw writers
	listener net.Listener
	peers    map[mutex.SiteID]string
	metrics  *obs.Metrics // nil unless metrics collection was requested
	wire     WireConfig   // byte-layer configuration
	clock    clock.Clock  // the reliable layer's, the writers' and the detector's

	// stage is the membership stage stamped onto every outbound envelope
	// (see internal/membership). It starts at the epoch-0 stable stage and
	// advances via ApplyMembership when an operator drives a handover.
	// stageHint tracks the newest stage heard from other peers; memberN the
	// cluster size the current stage was applied with.
	stage     atomic.Uint64
	stageHint atomic.Uint64
	memberN   atomic.Int64

	mu        sync.Mutex
	outs      map[mutex.SiteID]*outbound
	inbound   map[net.Conn]bool
	hbSink    *Detector                     // set by StartDetector; receives heartbeat traffic
	dropOut   func(env mutex.Envelope) bool // test hook: writer-side deterministic frame drops
	staleTold map[mutex.SiteID]uint64       // highest stage each peer was told it lags behind
	dead      map[mutex.SiteID]bool         // peers declared dead (injectFailure), until AddPeer revives one

	stopOnce sync.Once
	stopC    chan struct{}
	wg       sync.WaitGroup
}

// NewTCPPeer starts a single-resource peer for the given site: it listens on
// listenAddr for inbound protocol traffic and dials the peer addresses
// lazily on first send. peers maps every other site to its listen address.
func NewTCPPeer(site mutex.Site, listenAddr string, peers map[mutex.SiteID]string) (*TCPPeer, error) {
	return NewTCPPeerObserved(site, listenAddr, peers, nil, nil)
}

// NewTCPPeerObserved starts a single-resource peer whose node feeds the
// given metrics collector (exposed through Snapshot) and raw event sink.
// Either may be nil. Peers built this way serve only the default resource —
// Lock returns an error — because a lone site machine cannot instantiate
// further protocol instances; use NewTCPPeerConfig with a Factory for named
// locks.
func NewTCPPeerObserved(site mutex.Site, listenAddr string, peers map[mutex.SiteID]string, m *obs.Metrics, sink obs.Sink) (*TCPPeer, error) {
	used := false
	return NewTCPPeerConfig(TCPConfig{
		Self: site.ID(),
		Factory: func(name string) (mutex.Site, error) {
			if name != resource.Default {
				return nil, fmt.Errorf("transport: peer was built single-resource; named lock %q needs NewTCPPeerConfig", name)
			}
			if used {
				return nil, fmt.Errorf("transport: default resource already instantiated")
			}
			used = true
			return site, nil
		},
		ListenAddr: listenAddr,
		Peers:      peers,
		Metrics:    m,
		Observer:   sink,
	})
}

// NewTCPPeerConfig starts a multi-resource peer with explicit configuration.
func NewTCPPeerConfig(cfg TCPConfig) (*TCPPeer, error) {
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.ListenAddr, err)
	}
	p := &TCPPeer{
		self:     cfg.Self,
		listener: ln,
		peers:    make(map[mutex.SiteID]string, len(cfg.Peers)),
		metrics:  cfg.Metrics,
		wire:     cfg.Wire,
		clock:    cfg.clock,
		outs:     make(map[mutex.SiteID]*outbound),
		inbound:  make(map[net.Conn]bool),
		dead:     make(map[mutex.SiteID]bool),
		stopC:    make(chan struct{}),
	}
	if p.clock == nil {
		p.clock = clock.Real
	}
	for id, addr := range cfg.Peers {
		p.peers[id] = addr
	}
	if cfg.N > 0 {
		p.memberN.Store(int64(cfg.N))
	} else {
		p.memberN.Store(int64(len(cfg.Peers) + 1))
	}
	combined := cfg.Observer
	if cfg.Metrics != nil {
		combined = obs.Tee(cfg.Metrics.Observe, cfg.Observer)
	}
	// The reliability sublayer sits between the node loops and the raw
	// per-destination writers: its receive side is fed by the read loops and
	// hands exactly-once, per-stream-FIFO envelopes to dispatch.
	p.rel = newReliable(p.dispatch, combined, p.clock)
	p.manager = resource.NewManager(resource.Config{
		Policy: cfg.Policy,
		New: func(name string) (resource.Instance, error) {
			site, err := cfg.Factory(name)
			if err != nil {
				return nil, err
			}
			node := newResourceNode(name, site, p, combined, &p.stage, nil)
			// An instance born after a peer was declared dead learns of it as
			// the instances alive at the time did; otherwise its quorum may
			// wait on the dead peer for good. The manager calls New under the
			// lock injectFailure's sweep takes, so no instance misses both.
			for _, f := range p.deadPeers() {
				node.Inject(failureEnvelope(name, p.self, f))
			}
			return node, nil
		},
	})
	inst, err := p.manager.Instance(resource.Default)
	if err != nil {
		_ = ln.Close()
		p.manager.Close()
		return nil, err
	}
	p.node = inst.(*Node)
	p.rel.start(tcpWire{peer: p})
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Snapshot returns the peer's aggregated live metrics over every resource.
// ok is false when the peer was built without a metrics collector.
func (p *TCPPeer) Snapshot() (snap obs.Snapshot, ok bool) {
	if p.metrics == nil {
		return obs.Snapshot{}, false
	}
	return p.metrics.Snapshot(), true
}

// SnapshotResource returns the peer's live metrics for one named lock. ok is
// false without a metrics collector or when the resource has seen no events.
func (p *TCPPeer) SnapshotResource(name string) (snap obs.Snapshot, ok bool) {
	if p.metrics == nil {
		return obs.Snapshot{}, false
	}
	return p.metrics.SnapshotResource(name)
}

// Lock returns this peer's canonical handle for the named lock,
// instantiating the resource's protocol instance on first use.
func (p *TCPPeer) Lock(name string) (*resource.Lock, error) {
	return p.manager.Lock(name)
}

// Resources lists every resource instantiated at this peer, sorted.
func (p *TCPPeer) Resources() []string { return p.manager.Resources() }

// Node returns the default resource's hosted node — the legacy single-mutex
// interface for Acquire/Release.
func (p *TCPPeer) Node() *Node { return p.node }

// Addr returns the peer's actual listen address (useful with ":0").
func (p *TCPPeer) Addr() string { return p.listener.Addr().String() }

// Send implements Sender: the envelope passes through the reliability
// sublayer (sequencing, retransmission) and is queued on the destination's
// outbound writer. An error means the destination is unknown or the peer is
// shut down.
func (p *TCPPeer) Send(env mutex.Envelope) error {
	return p.rel.Send(env)
}

// SendBatch implements BatchSender: each destination's envelopes are queued
// in one operation and leave in one buffered write.
func (p *TCPPeer) SendBatch(envs []mutex.Envelope) error {
	return p.rel.SendBatch(envs)
}

// tcpWire is the raw sender under the reliability sublayer: already-stamped
// envelopes go straight to the per-destination writers.
type tcpWire struct {
	peer *TCPPeer
}

// Send implements Sender.
func (w tcpWire) Send(env mutex.Envelope) error {
	o, err := w.peer.outboundFor(env.To)
	if err != nil {
		return err
	}
	o.enqueue([]mutex.Envelope{env})
	return nil
}

// SendBatch implements BatchSender with cross-resource, cross-position
// coalescing: ALL of a destination's envelopes in the batch — not just
// consecutive runs — are queued under one lock acquisition and leave in one
// buffered write, so a multi-resource batch that interleaves destinations
// still costs one enqueue per destination. Per-destination FIFO order is
// preserved (the scan keeps each destination's relative order intact).
func (w tcpWire) SendBatch(envs []mutex.Envelope) error {
	var firstErr error
	forEachDestination(envs, func(dest mutex.SiteID) {
		o, err := w.peer.outboundFor(dest)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		o.enqueueFor(envs, dest)
	})
	return firstErr
}

// forEachDestination calls fn once per distinct destination in envs, in
// first-appearance order, without allocating. Batches are small (bounded by
// the quorum size times the node's per-step fan-out), so the quadratic
// first-occurrence scan stays cheaper than building a map.
func forEachDestination(envs []mutex.Envelope, fn func(dest mutex.SiteID)) {
	for i := range envs {
		dest := envs[i].To
		seen := false
		for j := 0; j < i; j++ {
			if envs[j].To == dest {
				seen = true
				break
			}
		}
		if !seen {
			fn(dest)
		}
	}
}

// outboundFor returns the destination's writer, starting it on first use.
func (p *TCPPeer) outboundFor(id mutex.SiteID) (*outbound, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if o, ok := p.outs[id]; ok {
		return o, nil
	}
	select {
	case <-p.stopC:
		return nil, fmt.Errorf("transport: peer is closed")
	default:
	}
	addr, ok := p.peers[id]
	if !ok {
		return nil, fmt.Errorf("transport: unknown peer %d", id)
	}
	o := &outbound{
		peer:   p,
		id:     id,
		addr:   addr,
		notify: make(chan struct{}, 1),
	}
	p.outs[id] = o
	p.wg.Add(1)
	go o.run()
	return o, nil
}

// outbound is one destination's write side: an unbounded FIFO of envelopes
// drained by a dedicated writer goroutine over one persistent connection.
type outbound struct {
	peer *TCPPeer
	id   mutex.SiteID
	addr string

	mu     sync.Mutex
	queue  []mutex.Envelope
	spare  []mutex.Envelope // drained batch recycled as the next queue backing
	notify chan struct{}

	// conn is guarded by mu so Close can abort a blocked write from outside
	// the writer goroutine; bw and enc are owned by the writer alone.
	conn net.Conn
	bw   *bufio.Writer
	enc  *wire.Encoder
}

func (o *outbound) enqueue(envs []mutex.Envelope) {
	o.mu.Lock()
	o.queue = append(o.queue, envs...)
	o.mu.Unlock()
	select {
	case o.notify <- struct{}{}:
	default:
	}
}

// enqueueFor queues every envelope of the batch addressed to dest — the
// whole selection under one lock acquisition, one wakeup.
func (o *outbound) enqueueFor(envs []mutex.Envelope, dest mutex.SiteID) {
	o.mu.Lock()
	for _, env := range envs {
		if env.To == dest {
			o.queue = append(o.queue, env)
		}
	}
	o.mu.Unlock()
	select {
	case o.notify <- struct{}{}:
	default:
	}
}

// run drains the queue: everything queued since the last drain — across all
// resources — is encoded back-to-back and flushed in one write. The queue and
// the previous drain's batch double-buffer: while one slice is being written,
// enqueue appends into the other, and each write-out hands its backing array
// back as the next queue. Steady-state traffic therefore allocates no queue
// space at all once both buffers have grown to the high-water batch size.
func (o *outbound) run() {
	defer o.peer.wg.Done()
	defer o.closeConn()
	for {
		select {
		case <-o.notify:
		case <-o.peer.stopC:
			return
		}
		for {
			o.mu.Lock()
			batch := o.queue
			if len(batch) == 0 {
				// Nothing to swap out: keep both buffers. Swapping here
				// would drop the empty one and cost a new queue per flush.
				o.mu.Unlock()
				break
			}
			o.queue = o.spare
			o.spare = nil
			o.mu.Unlock()
			o.write(batch)
			// Drop the envelope contents (a payload behind Msg is a heap
			// object) before recycling, so the spare buffer pins none.
			for i := range batch {
				batch[i] = mutex.Envelope{}
			}
			o.mu.Lock()
			o.spare = batch[:0]
			o.mu.Unlock()
		}
	}
}

// write delivers one batch, reconnecting once mid-batch on a broken pipe.
// A batch that cannot be delivered within the reconnect budget is dropped:
// the reliability sublayer retransmits sequenced traffic, and a peer gone
// for good is the failure protocol's to report.
func (o *outbound) write(batch []mutex.Envelope) {
	o.peer.mu.Lock()
	drop := o.peer.dropOut
	o.peer.mu.Unlock()
	if d := o.peer.wire.LinkDelay; d > 0 && !clock.Sleep(o.peer.clock, d, o.peer.stopC) {
		return
	}
	for attempt := 0; attempt < 2; attempt++ {
		if !o.ensureConn() {
			return
		}
		ok := true
		for _, env := range batch {
			if drop != nil && drop(env) {
				continue // test hook: simulate wire loss at the writer
			}
			if err := o.enc.Encode(env); err != nil {
				ok = false
				break
			}
		}
		if ok && o.bw.Flush() == nil {
			return
		}
		o.closeConn()
	}
}

// ensureConn dials the destination with bounded exponential backoff and runs
// the wire handshake on the fresh connection. It reports false when the
// budget is exhausted or the peer is shutting down.
func (o *outbound) ensureConn() bool {
	select {
	case <-o.peer.stopC:
		return false
	default:
	}
	o.mu.Lock()
	connected := o.conn != nil
	o.mu.Unlock()
	if connected {
		return true
	}
	delay := reconnectBase
	for attempt := 1; ; attempt++ {
		conn, err := net.DialTimeout("tcp", o.addr, dialTimeout)
		if err == nil {
			if o.bw == nil {
				o.bw = bufio.NewWriter(conn)
			} else {
				o.bw.Reset(conn) // recycle the write buffer across reconnects
			}
			// Encoders carry per-stream state (the interning table), so
			// each connection gets a fresh one.
			if wire.Offer(conn, wire.MagicPeer, dialTimeout) == nil {
				o.mu.Lock()
				o.conn = conn
				o.mu.Unlock()
				o.enc = wire.Binary().NewEncoder(o.bw)
				return true
			}
			_ = conn.Close()
			o.bw.Reset(nil)
		}
		if attempt == reconnectAttempts || !clock.Sleep(o.peer.clock, delay, o.peer.stopC) {
			return false
		}
		delay = min(2*delay, reconnectMax)
	}
}

func (o *outbound) closeConn() {
	o.mu.Lock()
	conn := o.conn
	o.conn = nil
	o.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	// The encoder dies with its stream (its pooled scratch goes back); the
	// bufio.Writer survives and is Reset onto the next connection.
	if o.enc != nil {
		_ = o.enc.Close()
		o.enc = nil
	}
	if o.bw != nil {
		o.bw.Reset(nil)
	}
}

// abort closes the live connection from outside the writer goroutine,
// unblocking a write stalled on a dead peer during shutdown. The writer's
// own error path then clears its encoder state.
func (o *outbound) abort() {
	o.mu.Lock()
	conn := o.conn
	o.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

func (p *TCPPeer) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.listener.Accept()
		if err != nil {
			return // closed, or broken: either way the peer is down
		}
		p.mu.Lock()
		p.inbound[conn] = true
		p.mu.Unlock()
		p.wg.Add(1)
		go p.readLoop(conn)
	}
}

// readLoop answers the connection's handshake, then decodes frames until
// the stream dies. Hardening against hostile bytes lives in the wire package.
func (p *TCPPeer) readLoop(conn net.Conn) {
	defer p.wg.Done()
	defer func() {
		_ = conn.Close()
		p.mu.Lock()
		delete(p.inbound, conn)
		p.mu.Unlock()
	}()
	if wire.Accept(conn, wire.MagicPeer, dialTimeout) != nil {
		return
	}
	dec := wire.Binary().NewDecoder(conn)
	defer dec.Close()
	for {
		env, err := dec.Decode()
		if err != nil {
			return
		}
		// Everything funnels through the reliability sublayer: it consumes
		// acks, suppresses duplicates, reorders sequenced traffic, and hands
		// exactly-once deliveries to dispatch.
		_ = p.rel.Receive(env)
	}
}

// dispatch consumes one exactly-once, in-order envelope from the reliability
// sublayer: heartbeats feed the failure detector, ack-only frames are
// already fully consumed, stage announcements fold into the membership hint,
// and protocol traffic routes to the resource's instance (instantiated
// lazily; an envelope for a name this peer cannot build is dropped).
//
// Frames stamped with a stale membership stage are still delivered — during
// a joint handover phase both stages legitimately coexist, and the protocol
// layer is stage-agnostic (safety rests on quorum intersection, which the
// joint req_sets preserve) — but the sender is answered with the current
// configuration so a process that slept through a reconfiguration learns it
// is behind.
func (p *TCPPeer) dispatch(env mutex.Envelope) error {
	if hb, ok := env.Msg.(heartbeatMsg); ok {
		p.mu.Lock()
		sink := p.hbSink
		p.mu.Unlock()
		if sink != nil {
			sink.observe(hb.From)
		}
		return nil
	}
	if cm, ok := env.Msg.(configMsg); ok {
		p.noteRemoteStage(cm.Stage)
		return nil
	}
	if !env.HasPayload() {
		return nil
	}
	if cur := p.stage.Load(); env.Epoch < cur {
		p.answerStale(env.From, cur)
	} else if env.Epoch > cur {
		p.noteRemoteStage(env.Epoch)
	}
	return p.manager.Inject(env)
}

// setDropHook installs a writer-side frame filter (return true to drop the
// frame before it reaches the wire). Test-only: it simulates deterministic
// message loss so the reliability sublayer's recovery is assertable over
// real connections.
func (p *TCPPeer) setDropHook(drop func(env mutex.Envelope) bool) {
	p.mu.Lock()
	p.dropOut = drop
	p.mu.Unlock()
}

// injectFailure announces a crashed site to every instantiated resource, so
// each lock's §6 recovery rebuilds its quorums, and records it for instances
// created later. The reliability sublayer resets its streams first:
// retransmission at the dead peer stops.
func (p *TCPPeer) injectFailure(failed mutex.SiteID) {
	p.rel.PeerFailed(failed)
	// Recorded before the sweep: an instance created while it runs either
	// reads the record at birth or is already in the manager's table.
	p.mu.Lock()
	p.dead[failed] = true
	p.mu.Unlock()
	p.manager.Each(func(name string, inst resource.Instance) {
		inst.Inject(failureEnvelope(name, p.self, failed))
	})
}

// deadPeers lists the peers declared dead, ascending, so a lock instance
// born later learns of them in the same order on every run.
func (p *TCPPeer) deadPeers() []mutex.SiteID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Sorted(maps.Keys(p.dead))
}

// setHeartbeatSink routes incoming heartbeats to the detector.
func (p *TCPPeer) setHeartbeatSink(d *Detector) {
	p.mu.Lock()
	p.hbSink = d
	p.mu.Unlock()
}

// Close shuts the peer down: every resource's node loop, the listener, the
// outbound writers, and every connection.
func (p *TCPPeer) Close() {
	p.stopOnce.Do(func() { close(p.stopC) })
	p.manager.Close()
	p.rel.Close()
	_ = p.listener.Close()
	p.mu.Lock()
	outs := make([]*outbound, 0, len(p.outs))
	for _, o := range p.outs {
		outs = append(outs, o)
	}
	for conn := range p.inbound {
		_ = conn.Close()
	}
	p.mu.Unlock()
	// Abort live connections so writers stalled mid-write observe an error
	// and then stopC; their deferred closeConn finishes the teardown.
	for _, o := range outs {
		o.abort()
	}
	p.wg.Wait()
}
