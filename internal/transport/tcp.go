package transport

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

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
	// clock times the peer and its parts (nil: clock.Real). Test-only.
	clock clock.Clock
}

// TCPPeer hosts one site of a cluster spread across processes or machines
// and multiplexes any number of named locks over it. Envelopes travel as
// wire-v1 frames (internal/wire), behind a per-connection handshake, over one
// outbound TCP connection per destination. Each destination has one byte
// queue, encoded into as envelopes are sent, and one write role, held by at
// most one goroutine at a time — usually the sender's own, which writes
// without blocking; see outbound. Queue order is wire order, which preserves
// the protocol's per-channel FIFO requirement, and one write carries
// whatever different resources queued meanwhile, so adding locks does not
// multiply syscalls. A broken connection is recovered by the reliable
// sublayer alone (reliable.Requeue), which the site's loop owns: read loops
// queue what they decode for it. Message types register themselves with
// internal/wire when their protocol package is imported — there is no
// separate registration step.
type TCPPeer struct {
	self     mutex.SiteID
	host     *host // the site's lock instances and its loop, which owns the reliable layer over the outbounds
	listener net.Listener
	peers    map[mutex.SiteID]string
	metrics  *obs.Metrics // nil unless metrics collection was requested
	clock    clock.Clock  // the reliable layer's, the outbounds' and the detector's

	// stage is the membership stage stamped onto every outbound envelope
	// (see internal/membership). It starts at the epoch-0 stable stage and
	// advances via ApplyMembership when an operator drives a handover.
	// stageHint tracks the newest stage heard from other peers; memberN the
	// cluster size the current stage was applied with.
	stage     atomic.Uint64
	stageHint atomic.Uint64
	memberN   atomic.Int64

	mu      sync.Mutex
	outs    map[mutex.SiteID]*outbound
	inbound map[net.Conn]bool
	hbSink  *Detector // set by StartDetector; receives heartbeat traffic

	staleTold map[mutex.SiteID]uint64 // loop-owned: highest stage each peer was told it lags behind

	dropOut atomic.Pointer[func(env mutex.Envelope) bool] // test hook: deterministic frame drops at enqueue

	stopOnce sync.Once
	stopC    chan struct{}
	wg       sync.WaitGroup
}

// NewTCPPeerConfig starts a multi-resource peer with explicit configuration.
func NewTCPPeerConfig(cfg TCPConfig) (*TCPPeer, error) {
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.ListenAddr, err)
	}
	p := &TCPPeer{
		self:      cfg.Self,
		listener:  ln,
		peers:     make(map[mutex.SiteID]string, len(cfg.Peers)),
		metrics:   cfg.Metrics,
		clock:     cfg.clock,
		outs:      make(map[mutex.SiteID]*outbound),
		inbound:   make(map[net.Conn]bool),
		staleTold: make(map[mutex.SiteID]uint64),
		stopC:     make(chan struct{}),
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
	// The site's loop runs the reliability sublayer over the raw outbounds:
	// it is fed the frames the read loops queue and hands exactly-once,
	// per-stream-FIFO envelopes to dispatch.
	p.host = newHost(cfg.Self, cfg.Factory, tcpWire{peer: p}, p.clock, p.dispatch, combined, &p.stage, newDeadSet(), nil)
	if err := p.host.open(); err != nil {
		_ = ln.Close()
		return nil, err
	}
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
	return p.host.lock(name)
}

// Resources lists every resource instantiated at this peer, sorted.
func (p *TCPPeer) Resources() []string { return p.host.resources() }

// Node returns the default resource's hosted node — the legacy single-mutex
// interface for Acquire/Release.
func (p *TCPPeer) Node() *Node { return p.host.node }

// DumpState renders the protocol state of every resource instantiated at
// this peer, one line per resource, as Cluster.DumpState does per site. The
// lines are rendered in one step of the site's loop, so the dump is safe
// under live traffic.
func (p *TCPPeer) DumpState() string {
	var b strings.Builder
	p.host.dump(&b)
	return b.String()
}

// Addr returns the peer's actual listen address (useful with ":0").
func (p *TCPPeer) Addr() string { return p.listener.Addr().String() }

// Send implements Sender: the envelope is queued on the site's loop, which
// passes it through the reliability sublayer (sequencing, retransmission)
// onto the destination's outbound. An error means the peer is shut down.
func (p *TCPPeer) Send(env mutex.Envelope) error {
	return p.host.send(env)
}

// tcpWire is the raw sender under the reliability sublayer: already-stamped
// envelopes go straight to the per-destination outbounds.
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

// SendBatch implements BatchSender: each destination's envelopes, from
// whichever resources, are queued under one lock acquisition and leave in
// one write, in their order.
func (w tcpWire) SendBatch(envs []mutex.Envelope) error {
	return byDestination(envs, func(dest mutex.SiteID, run []mutex.Envelope) error {
		o, err := w.peer.outboundFor(dest)
		if err != nil {
			return err
		}
		o.enqueue(run)
		return nil
	})
}

// outboundFor returns the destination's write side, building it on first use.
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
	o := &outbound{peer: p, id: id, addr: addr}
	o.writeRawFn = o.writeRaw
	p.outs[id] = o
	return o, nil
}

// outbound is one destination's write side: one persistent connection, the
// frames encoded for it and not yet written, and a write role that at most
// one goroutine holds at a time.
//
// enqueue encodes each batch under mu onto the back of queue, with the
// encoder of the connection the bytes are for. The role holder swaps queue
// with out, its other buffer, and writes out in one write loop. Whoever
// queues onto a destination nobody is writing to takes the role and writes
// on its own goroutine without blocking; frames that cannot leave at once —
// no connection yet, a full socket buffer — pass with the role
// to a goroutine that may block, which writes until the queue is empty and
// exits. The single holder keeps the destination's frames in FIFO order; no
// goroutine stays resident per destination.
//
// Recovery after a broken connection belongs to the reliable sublayer. A
// write error discards the connection, its encoder and every frame encoded
// for it, and asks the sublayer to re-send the destination's unacked
// envelopes at once; a dial that exhausts its budget drops its frames and
// leaves them to the retransmission timer. Unsequenced frames (acks,
// heartbeats, config answers) are best-effort across a break.
type outbound struct {
	peer *TCPPeer
	id   mutex.SiteID
	addr string

	mu      sync.Mutex
	queue   frameBuf      // frames encoded by enc, not yet taken by the role holder
	enc     *wire.Encoder // the connection's, or the next one's; nil until the first enqueue after a break
	writing bool          // the write role is held
	retired bool          // shut: nothing more is queued; the last role holder closes the connection
	// conn and raw, its handle for writes, are set only by the role holder,
	// which reads them freely; they change under mu so that shut can abort a
	// parked write from outside the holder.
	conn net.Conn
	raw  syscall.RawConn

	// Owned by the write-role holder.
	out        []byte                // the frames in hand: queue's other buffer
	sent       int                   // bytes of out already written
	park       bool                  // the holder may wait for the socket to drain
	werr       error                 // writeRaw's error other than EAGAIN
	writeRawFn func(fd uintptr) bool // writeRaw's method value, bound once
}

// frameBuf is the writer an encoder appends frames to.
type frameBuf struct{ b []byte }

func (f *frameBuf) Write(p []byte) (int, error) {
	f.b = append(f.b, p...)
	return len(p), nil
}

// maxKeptFrames caps the buffer kept between batches, so a backlog flushed
// once after a stall does not stay pinned.
const maxKeptFrames = 64 << 10

// enqueue encodes a run of envelopes for this destination onto the queue —
// the whole run under one lock acquisition — and, when nobody holds the
// write role, takes it and writes on this goroutine. An envelope that cannot
// be encoded, or that the test drop hook picks, adds nothing to the queue;
// the sublayer re-sends a sequenced one.
func (o *outbound) enqueue(envs []mutex.Envelope) {
	drop := o.peer.dropOut.Load()
	o.mu.Lock()
	if o.retired {
		o.mu.Unlock()
		return
	}
	if o.enc == nil {
		// Encoders carry per-stream state (the interning table), so each
		// connection's frames come from a fresh one.
		o.enc = wire.Binary().NewEncoder(&o.queue)
	}
	for i := range envs {
		if drop == nil || !(*drop)(envs[i]) {
			_ = o.enc.Encode(envs[i])
		}
	}
	idle := !o.writing
	o.writing = true
	o.mu.Unlock()
	if idle {
		o.run(false)
	}
}

// run holds the write role: it writes the frames in hand, then the queue
// taken whole, batch after batch, until the queue is empty and it lets the
// role go. park says whether this goroutine may block; the sender's may not,
// and passes the role, with the frames in hand, to one that may.
func (o *outbound) run(park bool) {
	for o.next() {
		if !park && (o.raw == nil || !writeInline) {
			o.handOff()
			return
		}
		if park && !o.ensureConn() {
			o.discard() // the timer re-sends what was sequenced
			continue
		}
		o.park, o.werr = park, nil
		if err := o.raw.Write(o.writeRawFn); err != nil || o.werr != nil {
			o.discard()
			h := o.peer.host
			h.post(func() { h.rel.Requeue(o.id) }) // on the loop, which owns the layer
			continue
		}
		if o.sent < len(o.out) {
			o.handOff() // the socket buffer is full
			return
		}
	}
}

// writeRaw writes the rest of out on the socket for RawConn.Write. At
// EAGAIN it reports done on the sender's goroutine, which must not park; on
// one that may, it reports not done, and RawConn.Write waits for the socket
// to become writable and calls it again.
func (o *outbound) writeRaw(fd uintptr) bool {
	for o.sent < len(o.out) {
		n, err := writeFD(fd, o.out[o.sent:])
		if n > 0 {
			o.sent += n
		}
		switch {
		case err == syscall.EINTR:
		case err == syscall.EAGAIN:
			return !o.park
		case err != nil:
			o.werr = err
			return true
		case n == 0:
			o.werr = io.ErrShortWrite
			return true
		}
	}
	return true
}

// next makes sure the role holder has frames in hand: the rest of those it
// holds, else the queue, swapped in whole. The two buffers alternate, so
// steady-state traffic allocates nothing once both have grown to the
// high-water batch. On an empty queue it lets the role go and returns false.
func (o *outbound) next() bool {
	if o.sent < len(o.out) {
		return true
	}
	if cap(o.out) > maxKeptFrames {
		o.out = nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.queue.b) == 0 {
		o.releaseLocked()
		return false
	}
	o.out, o.queue.b = o.queue.b, o.out[:0]
	o.sent = 0
	return true
}

// releaseLocked gives up the write role. A retired outbound's last holder
// closes the connection on its way out.
func (o *outbound) releaseLocked() {
	o.writing = false
	if o.retired {
		o.dropConnLocked()
	}
}

// handOff passes the write role, with the frames in hand, to a goroutine
// that may block. The goroutine joins the peer's wait group under p.mu,
// where Close also closes stopC before it waits, so the Add cannot race the
// Wait; a closed peer drops the frames instead.
func (o *outbound) handOff() {
	p := o.peer
	p.mu.Lock()
	select {
	case <-p.stopC:
		p.mu.Unlock()
		o.out, o.sent = o.out[:0], 0
		o.mu.Lock()
		o.dropConnLocked()
		o.releaseLocked()
		o.mu.Unlock()
		return
	default:
	}
	p.wg.Add(1)
	p.mu.Unlock()
	go func() {
		defer p.wg.Done()
		o.run(true)
	}()
}

// discard drops the connection, its encoder and every frame encoded for it:
// those in hand and those queued behind them.
func (o *outbound) discard() {
	o.out, o.sent = o.out[:0], 0
	o.mu.Lock()
	o.dropConnLocked()
	o.mu.Unlock()
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
	if o.conn != nil {
		return true
	}
	delay := reconnectBase
	for attempt := 1; ; attempt++ {
		conn, err := net.DialTimeout("tcp", o.addr, dialTimeout)
		if err == nil {
			var raw syscall.RawConn
			raw, err = conn.(*net.TCPConn).SyscallConn()
			if err == nil {
				err = wire.Offer(conn, wire.MagicPeer, dialTimeout)
			}
			if err == nil {
				o.mu.Lock()
				o.conn, o.raw = conn, raw
				o.mu.Unlock()
				return true
			}
			_ = conn.Close()
		}
		if attempt == reconnectAttempts || !clock.Sleep(o.peer.clock, delay, o.peer.stopC) {
			return false
		}
		delay = min(2*delay, reconnectMax)
	}
}

// dropConnLocked closes the connection; the encoder and the frames it
// queued die with the stream, and its pooled scratch goes back. Only the
// role holder, or anyone while the role is free, may call it.
func (o *outbound) dropConnLocked() {
	if o.conn != nil {
		_ = o.conn.Close()
	}
	o.conn, o.raw = nil, nil
	if o.enc != nil {
		_ = o.enc.Close()
		o.enc = nil
	}
	o.queue.b = o.queue.b[:0]
}

// shut retires the outbound. With the role free it closes the connection at
// once; otherwise it aborts the holder's write on it, and the holder
// finishes the teardown when it lets the role go.
func (o *outbound) shut() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.retired = true
	if !o.writing {
		o.dropConnLocked()
	} else if o.conn != nil {
		_ = o.conn.Close()
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

// readBufSize sizes each inbound connection's read buffer. Frames average
// about 14 bytes, so 512 holds dozens of them; a larger frame is read past
// the buffer, straight into the decoder's scratch.
const readBufSize = 512

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
	dec := wire.Binary().NewDecoder(bufio.NewReaderSize(conn, readBufSize))
	defer dec.Close()
	for {
		env, err := dec.Decode()
		if err != nil {
			return
		}
		// Everything funnels through the reliability sublayer on the site's
		// loop: it consumes acks, suppresses duplicates, reorders sequenced
		// traffic, and hands exactly-once deliveries to dispatch.
		if p.host.inject(env) != nil {
			return
		}
	}
}

// dispatch consumes one exactly-once, in-order envelope from the reliability
// sublayer, on the site's loop: heartbeats feed the failure detector,
// stage announcements fold into the membership hint, and protocol traffic
// steps the resource's instance (instantiated lazily; an envelope for a
// name this peer cannot build is dropped).
//
// Frames stamped with a stale membership stage are still delivered — during
// a joint handover phase both stages legitimately coexist, and the protocol
// layer is stage-agnostic (safety rests on quorum intersection, which the
// joint req_sets preserve) — but the sender is answered with the current
// configuration so a process that slept through a reconfiguration learns it
// is behind.
func (p *TCPPeer) dispatch(env mutex.Envelope) {
	if hb, ok := env.Msg.(heartbeatMsg); ok {
		p.mu.Lock()
		sink := p.hbSink
		p.mu.Unlock()
		if sink != nil {
			sink.observe(hb.From)
		}
		return
	}
	if cm, ok := env.Msg.(configMsg); ok {
		p.noteRemoteStage(cm.Stage)
		return
	}
	if cur := p.stage.Load(); env.Epoch < cur {
		p.answerStale(env.From, cur)
	} else if env.Epoch > cur {
		p.noteRemoteStage(env.Epoch)
	}
	p.host.route(env)
}

// setDropHook installs a frame filter at enqueue (return true to drop the
// frame before it is encoded for the wire). Test-only: it simulates deterministic
// message loss so the reliability sublayer's recovery is assertable over
// real connections.
func (p *TCPPeer) setDropHook(drop func(env mutex.Envelope) bool) {
	p.dropOut.Store(&drop)
}

// injectFailure announces a crashed site to every instantiated resource, so
// each lock's §6 recovery rebuilds its quorums, and records it for instances
// created later. The reliability sublayer resets its streams first
// (host.announce): retransmission at the dead peer stops.
func (p *TCPPeer) injectFailure(failed mutex.SiteID) {
	p.host.dead.add(failed)
	p.host.announce(failed)
}

// setHeartbeatSink routes incoming heartbeats to the detector.
func (p *TCPPeer) setHeartbeatSink(d *Detector) {
	p.mu.Lock()
	p.hbSink = d
	p.mu.Unlock()
}

// Close shuts the peer down: the site's loop, the listener, the
// outbound connections, and every inbound one.
func (p *TCPPeer) Close() {
	// Closed under p.mu: a write role handed to a goroutine joins wg under
	// the same lock, so no Add can follow the Wait below.
	p.mu.Lock()
	p.stopOnce.Do(func() { close(p.stopC) })
	p.mu.Unlock()
	p.host.close()
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
	// shut closes each outbound's connection now, or aborts the write of
	// the goroutine holding its role, which finishes the teardown as it lets
	// the role go.
	for _, o := range outs {
		o.shut()
	}
	p.wg.Wait()
}
