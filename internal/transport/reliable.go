package transport

// The reliable-delivery sublayer: the piece of the stack that discharges the
// paper's reliable-FIFO-channel assumption on a lossy wire. It sits between
// the node loops and a wire that can lose — the TCP writers, or the chaos
// fabric of an in-process cluster built with a plan. A plain in-process
// cluster has none: its mailboxes are reliable FIFO by construction.
//
// Every (source, destination) site pair is one bidirectional pair of
// streams. The send side stamps protocol envelopes with monotone sequence
// numbers, keeps them on a retransmission queue until the peer's cumulative
// acknowledgement covers them, and re-sends overdue entries with exponential
// backoff plus jitter. The receive side deduplicates by sequence number and
// holds out-of-order arrivals in a reorder buffer, so the state machines in
// internal/core continue to observe exactly-once, per-stream-FIFO delivery
// even when the wire drops, duplicates, or reorders.
//
// Acknowledgements are cumulative and piggybacked on every outgoing envelope
// of the reverse direction; a receiver with nothing to say flushes a
// standalone ack frame (Seq 0, no payload) after a short idle grace. Transport-
// level traffic — heartbeats and the ack frames themselves — travels
// unsequenced (Seq 0): probing is time-sensitive and must never be
// retransmitted at a peer that is already gone.
//
// All of this is invisible to the protocol's message-complexity accounting:
// obs.EventSend is emitted once per protocol message in Node.apply, above
// this layer, so retransmitted copies and ack frames never inflate the
// 3(K−1)..6(K−1) bound. The layer reports its own health through the
// transport-level events EventRetransmit, EventDupDrop, and EventAckSend.
//
// It is also the one recovery owner of a TCP link: a writer whose connection
// broke discards it with every frame encoded for it and calls Requeue, and
// the next flush pass re-sends the destination's unacked envelopes over a
// fresh one. Unsequenced frames lost with a connection stay lost.
//
// Composition with the §6 failure path: PeerFailed tears down every stream
// that touches the declared-dead site and drops its pending retransmissions,
// so a crash stops the layer from babbling at a corpse and a later regrant
// never resurrects stale sequence state.

import (
	"sync"
	"time"

	"dqmx/internal/clock"
	"dqmx/internal/mutex"
	"dqmx/internal/obs"
)

// Retransmission and acknowledgement timing. The base backoff is much larger
// than the ack flush grace so a healthy wire never retransmits: an envelope
// is only re-sent when its ack had dozens of flush windows to arrive.
const (
	// rtxBase is the first retransmission backoff.
	rtxBase = 100 * time.Millisecond
	// rtxMax caps the exponential backoff.
	rtxMax = 800 * time.Millisecond
	// ackGrace is how long a receiver waits for reverse traffic to piggyback
	// an ack before flushing a standalone ack frame.
	ackGrace = 2 * time.Millisecond
	// relTick is the period of the combined retransmit/ack-flush loop.
	relTick = 2 * time.Millisecond
)

// transportMessage marks payloads owned by the transport itself (heartbeat
// probes): they bypass sequencing and retransmission, carrying only a
// piggybacked ack.
type transportMessage interface {
	transportMessage()
}

// streamID names one direction of a site pair's channel.
type streamID struct {
	from, to mutex.SiteID
}

// relPending is one sent-but-unacknowledged envelope.
type relPending struct {
	env     mutex.Envelope
	due     time.Time
	attempt uint
}

// sendStream is the send half of one stream: the next sequence number and
// the retransmission queue (ascending by Seq, so a cumulative ack clears a
// prefix).
type sendStream struct {
	nextSeq uint64
	unacked []relPending
}

// recvStream is the receive half: the cumulative delivery horizon, the
// reorder buffer for arrivals beyond it, and the pending-ack state.
type recvStream struct {
	delivered uint64
	buffer    map[uint64]mutex.Envelope
	ackDue    bool
	ackAt     time.Time
}

// reliable is the delivery layer for one endpoint (a chaos cluster shares a
// single instance across all its sites; a TCP peer owns one).
//
// Lock discipline: r.mu is never held across a downward send — the chaos
// fabric's fast path delivers inline on the sender's goroutine, which
// re-enters Receive. Upward deliveries, by contrast, run under r.mu so two
// wire goroutines completing the same stream cannot hand envelopes to the
// node out of order; that is safe because delivery only appends to the
// destination's unbounded mailbox and never calls back into this layer.
type reliable struct {
	deliver func(env mutex.Envelope) error // upward exactly-once path
	sink    obs.Sink                       // transport-level events; may be nil
	clock   clock.Clock                    // the owner's: backoff deadlines, ack grace, the flush loop

	raw BatchSender // downward wire; set by start before any traffic

	mu   sync.Mutex
	out  map[streamID]*sendStream
	in   map[streamID]*recvStream
	dead map[mutex.SiteID]bool
	rng  uint64 // jitter state, guarded by mu

	// Scratch of flush, which only the loop goroutine runs: what one pass
	// collects under mu and sends after releasing it. Emptied after use, so
	// a quiet layer pins no message.
	batch  []mutex.Envelope
	events []obs.Event

	stopOnce sync.Once
	stopC    chan struct{}
	doneC    chan struct{}
}

// newReliable builds the layer around its upward delivery path. The caller
// must start it (wiring the downward sender) before any traffic flows; the
// two-step construction breaks the cycle with fabrics that deliver into
// Receive.
func newReliable(deliver func(env mutex.Envelope) error, sink obs.Sink, clk clock.Clock) *reliable {
	return &reliable{
		deliver: deliver,
		sink:    sink,
		clock:   clk,
		out:     make(map[streamID]*sendStream),
		in:      make(map[streamID]*recvStream),
		dead:    make(map[mutex.SiteID]bool),
		rng:     uint64(clk.Now().UnixNano()) | 1,
		stopC:   make(chan struct{}),
		doneC:   make(chan struct{}),
	}
}

// start wires the downward sender and spawns the retransmit/ack-flush loop.
func (r *reliable) start(raw BatchSender) {
	r.raw = raw
	go r.loop()
}

// Close stops the background loop. Pending retransmissions are discarded.
func (r *reliable) Close() {
	r.stopOnce.Do(func() { close(r.stopC) })
	<-r.doneC
}

// PeerFailed composes the layer with the §6 failure path: every stream
// touching the declared-dead site is torn down, its retransmission queue and
// reorder buffer dropped, and all future traffic from or to the site is
// discarded. Retransmission at a corpse stops immediately.
func (r *reliable) PeerFailed(id mutex.SiteID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dead[id] {
		return
	}
	r.dead[id] = true
	for sid := range r.out {
		if sid.from == id || sid.to == id {
			delete(r.out, sid)
		}
	}
	for sid := range r.in {
		if sid.from == id || sid.to == id {
			delete(r.in, sid)
		}
	}
}

// Drained reports whether every outbound stream of the given site has been
// fully acknowledged — no envelope it sent is still waiting to land. The
// reconfiguration drain polls this before retiring a departing site:
// tearing the streams down earlier would drop the site's final release and
// transfer messages in flight and strand the locks they hand over.
func (r *reliable) Drained(id mutex.SiteID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for sid, out := range r.out {
		if sid.from == id && len(out.unacked) > 0 {
			return false
		}
	}
	return true
}

// Requeue makes every envelope still unacknowledged at the site due now: the
// connection that carried them broke, taking whatever its socket held.
func (r *reliable) Requeue(to mutex.SiteID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.clock.Now()
	for id, ss := range r.out {
		if id.to == to {
			for i := range ss.unacked {
				ss.unacked[i].due = now
			}
		}
	}
}

// ReviveSite clears the dead mark of a site ID so it can be reused by a
// later configuration (a grow after a shrink, or a crash-replace restart).
// Streams were already torn down at death, so the revived site starts from
// fresh sequence state on both sides.
func (r *reliable) ReviveSite(id mutex.SiteID) {
	r.mu.Lock()
	delete(r.dead, id)
	r.mu.Unlock()
}

// unsequenced reports whether the envelope is transport-level traffic: an
// ack frame without a payload, or a payload the transport itself owns.
func unsequenced(env *mutex.Envelope) bool {
	if !env.HasPayload() {
		return true
	}
	_, ok := env.Msg.(transportMessage)
	return ok
}

// Send implements Sender: protocol envelopes are sequenced and queued for
// retransmission, transport-level ones pass through; both carry the reverse
// stream's cumulative ack.
func (r *reliable) Send(env mutex.Envelope) error {
	if !r.prepare(&env) {
		return nil
	}
	return r.raw.Send(env)
}

// SendBatch implements BatchSender, preserving the batch's per-destination
// order through sequencing.
func (r *reliable) SendBatch(envs []mutex.Envelope) error {
	kept := envs[:0]
	for i := range envs {
		if r.prepare(&envs[i]) {
			kept = append(kept, envs[i])
		}
	}
	if len(kept) == 0 {
		return nil
	}
	return r.raw.SendBatch(kept)
}

// prepare stamps one outgoing envelope under the lock — piggybacked ack,
// sequence number, retransmission entry — and reports whether it should
// reach the wire at all (traffic involving a dead site is discarded).
func (r *reliable) prepare(env *mutex.Envelope) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dead[env.From] || r.dead[env.To] {
		return false
	}
	// Piggyback the cumulative ack of the reverse stream; the carried ack
	// supersedes any pending standalone flush.
	if rs := r.in[streamID{from: env.To, to: env.From}]; rs != nil {
		env.Ack = rs.delivered
		rs.ackDue = false
	}
	if unsequenced(env) {
		return true
	}
	id := streamID{from: env.From, to: env.To}
	ss := r.out[id]
	if ss == nil {
		ss = &sendStream{}
		r.out[id] = ss
	}
	ss.nextSeq++
	env.Seq = ss.nextSeq
	ss.unacked = append(ss.unacked, relPending{
		env: *env,
		due: r.clock.Now().Add(r.backoffLocked(0)),
	})
	return true
}

// Receive ingests one envelope off the wire: it applies the piggybacked ack,
// passes transport-level frames straight up, and runs sequenced traffic
// through the dedup/reorder machinery so exactly the next in-order suffix is
// delivered.
func (r *reliable) Receive(env mutex.Envelope) error {
	r.mu.Lock()
	if r.dead[env.From] || r.dead[env.To] {
		r.mu.Unlock()
		return nil
	}
	if env.Ack > 0 {
		r.ackLocked(streamID{from: env.To, to: env.From}, env.Ack)
	}
	if env.Seq == 0 {
		r.mu.Unlock()
		if !env.HasPayload() {
			return nil // standalone ack frame: fully consumed above
		}
		return r.deliver(env) // heartbeat and friends: best-effort, unordered
	}
	id := streamID{from: env.From, to: env.To}
	rs := r.in[id]
	if rs == nil {
		rs = &recvStream{buffer: make(map[uint64]mutex.Envelope)}
		r.in[id] = rs
	}
	if env.Seq <= rs.delivered {
		// Already delivered: a retransmission that crossed our ack, or a wire
		// duplicate. Suppress it and re-arm the ack so the sender settles.
		r.noteAckLocked(rs)
		r.emitLocked(obs.Event{Type: obs.EventDupDrop, Site: env.To, Peer: env.From, Time: obs.Now()})
		r.mu.Unlock()
		return nil
	}
	if env.Seq != rs.delivered+1 {
		// A gap: park the envelope until retransmission fills it.
		if _, dup := rs.buffer[env.Seq]; dup {
			r.emitLocked(obs.Event{Type: obs.EventDupDrop, Site: env.To, Peer: env.From, Time: obs.Now()})
		} else {
			rs.buffer[env.Seq] = env
		}
		r.noteAckLocked(rs)
		r.mu.Unlock()
		return nil
	}
	// In order: deliver it and drain whatever the buffer now makes
	// contiguous, all under the lock so a concurrent Receive on the same
	// stream cannot interleave its suffix.
	r.noteAckLocked(rs)
	var firstErr error
	for {
		rs.delivered++
		if err := r.deliver(env); err != nil && firstErr == nil {
			firstErr = err
		}
		next, ok := rs.buffer[rs.delivered+1]
		if !ok {
			break
		}
		delete(rs.buffer, rs.delivered+1)
		env = next
	}
	r.mu.Unlock()
	return firstErr
}

// ackLocked clears the acknowledged prefix of a send stream.
func (r *reliable) ackLocked(id streamID, ack uint64) {
	ss := r.out[id]
	if ss == nil {
		return
	}
	i := 0
	for i < len(ss.unacked) && ss.unacked[i].env.Seq <= ack {
		i++
	}
	if i > 0 {
		ss.unacked = append(ss.unacked[:0], ss.unacked[i:]...)
	}
}

// noteAckLocked arms the idle standalone-ack flush for a receive stream.
func (r *reliable) noteAckLocked(rs *recvStream) {
	if !rs.ackDue {
		rs.ackDue = true
		rs.ackAt = r.clock.Now().Add(ackGrace)
	}
}

// emitLocked reports one transport-level event; the caller holds r.mu. Sinks
// are obs collectors and observers, which never call back into this layer.
func (r *reliable) emitLocked(e obs.Event) {
	if r.sink != nil {
		r.sink(e)
	}
}

// randLocked advances the jitter PRNG (splitmix-style); caller holds r.mu.
func (r *reliable) randLocked() float64 {
	r.rng += 0x9e3779b97f4a7c15
	x := r.rng
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// backoffLocked returns the retransmission delay for the given attempt:
// exponential from rtxBase, capped at rtxMax, with ±25% jitter so N streams
// recovering from one outage do not retransmit in lockstep.
func (r *reliable) backoffLocked(attempt uint) time.Duration {
	d := rtxBase
	for i := uint(0); i < attempt && d < rtxMax; i++ {
		d *= 2
	}
	if d > rtxMax {
		d = rtxMax
	}
	return time.Duration(float64(d) * (0.75 + 0.5*r.randLocked()))
}

// loop retransmits overdue envelopes and flushes idle acks every relTick,
// re-arming before each pass as a ticker would.
func (r *reliable) loop() {
	defer close(r.doneC)
	t := r.clock.NewTimer(relTick)
	defer t.Stop()
	for {
		select {
		case <-t.C():
			t.Reset(relTick)
			r.flush()
		case <-r.stopC:
			return
		}
	}
}

// flush collects due retransmissions and standalone acks under the lock
// into one batch, then puts it on the wire outside it (the raw sender may
// deliver inline), so each destination gets one enqueue per pass. Events are
// built only for a sink that will receive them.
func (r *reliable) flush() {
	now := r.clock.Now()
	batch, events := r.batch[:0], r.events[:0]
	r.mu.Lock()
	sink := r.sink
	for id, ss := range r.out {
		for i := range ss.unacked {
			p := &ss.unacked[i]
			if now.Before(p.due) {
				continue
			}
			p.attempt++
			p.due = now.Add(r.backoffLocked(p.attempt))
			e := p.env
			// Refresh the piggybacked ack: the retransmitted copy carries the
			// current reverse-stream horizon, not the one from first send.
			if rs := r.in[streamID{from: id.to, to: id.from}]; rs != nil {
				e.Ack = rs.delivered
				rs.ackDue = false
			}
			batch = append(batch, e)
			if sink != nil {
				events = append(events, obs.Event{
					Type: obs.EventRetransmit, Site: e.From, Peer: e.To,
					Kind: e.Kind(), Resource: e.Resource, Time: obs.Now(),
				})
			}
		}
	}
	for id, rs := range r.in {
		if !rs.ackDue || now.Before(rs.ackAt) {
			continue
		}
		rs.ackDue = false
		batch = append(batch, mutex.Envelope{From: id.to, To: id.from, Ack: rs.delivered})
		if sink != nil {
			events = append(events, obs.Event{
				Type: obs.EventAckSend, Site: id.to, Peer: id.from, Time: obs.Now(),
			})
		}
	}
	r.mu.Unlock()
	for _, e := range events {
		sink(e)
	}
	if len(batch) > 0 {
		_ = r.raw.SendBatch(batch)
	}
	clear(batch)
	clear(events)
	r.batch, r.events = batch, events
}
