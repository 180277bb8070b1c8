package transport

// The reliable-delivery sublayer: the piece of the stack that discharges the
// paper's reliable-FIFO-channel assumption on a lossy wire. It sits between
// the site loops and a wire that can lose — the TCP writers, or the chaos
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
// even when the wire drops, duplicates, or reorders. A gap that stays open
// for nackGrace is reported back (a gap report: Seq is the missing sequence
// number, no payload), and the sender re-sends that envelope on its next
// flush pass instead of waiting out the backoff: a stream that keeps moving
// heals a loss in tens of milliseconds, not hundreds.
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
// broke discards it with every frame encoded for it and queues a Requeue on
// the site's loop, and the next flush pass re-sends the destination's unacked
// envelopes over a fresh one. Unsequenced frames lost with a connection stay
// lost.
//
// Composition with the §6 failure path: PeerFailed tears down every stream
// that touches the declared-dead site and drops its pending retransmissions,
// so a crash stops the layer from babbling at a corpse and a later regrant
// never resurrects stale sequence state.

import (
	"maps"
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
	// relTick is the period of the flush pass (retransmits, gap reports,
	// standalone acks) while the layer has work; see host.run.
	relTick = 2 * time.Millisecond
	// nackGrace is how long a gap in a receive stream stays open before the
	// receiver reports it, and again between reports while it stays open.
	// It is many times the reordering a live wire shows, so an arrival that
	// is merely late, not lost, fills the gap first.
	nackGrace = 25 * time.Millisecond
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
// reorder buffer for arrivals beyond it, the pending-ack state, and when the
// gap at delivered+1 is next reported (while the buffer is non-empty).
type recvStream struct {
	delivered uint64
	buffer    map[uint64]mutex.Envelope
	ackDue    bool
	ackAt     time.Time
	nackAt    time.Time
}

// reliable is the delivery layer of one site. Only the site's loop steps it
// (host.run: sends, queued frames, the flush timer, and other goroutines'
// calls as loop items), so it takes no lock. Its raw sender never calls back
// into it: the fabrics put what they deliver in the destination's mailbox.
type reliable struct {
	raw     BatchSender              // downward wire
	deliver func(env mutex.Envelope) // upward exactly-once path, on the loop
	work    func()                   // told of each sequenced send and owed ack: re-arms a parked flush timer
	sink    obs.Sink                 // transport-level events; may be nil
	clock   clock.Clock              // the owner's: backoff deadlines, ack grace, gap reports

	out  map[streamID]*sendStream
	in   map[streamID]*recvStream
	dead map[mutex.SiteID]bool
	rng  uint64 // jitter state

	// batch is flush's scratch: one pass's frames, sent together so each
	// destination gets one enqueue per pass. Emptied after use, so a quiet
	// layer pins no message.
	batch []mutex.Envelope
}

// newReliable builds a layer over raw that hands what it delivers to
// deliver and calls work when it takes on work.
func newReliable(raw BatchSender, deliver func(env mutex.Envelope), work func(), sink obs.Sink, clk clock.Clock) *reliable {
	return &reliable{
		raw:     raw,
		deliver: deliver,
		work:    work,
		sink:    sink,
		clock:   clk,
		out:     make(map[streamID]*sendStream),
		in:      make(map[streamID]*recvStream),
		dead:    make(map[mutex.SiteID]bool),
		rng:     uint64(clk.Now().UnixNano()) | 1,
	}
}

// PeerFailed composes the layer with the §6 failure path: every stream
// touching the declared-dead site is torn down, its retransmission queue and
// reorder buffer dropped, and all future traffic from or to the site is
// discarded. Retransmission at a corpse stops immediately.
func (r *reliable) PeerFailed(id mutex.SiteID) {
	if r.dead[id] {
		return
	}
	r.dead[id] = true
	maps.DeleteFunc(r.out, func(sid streamID, _ *sendStream) bool { return sid.from == id || sid.to == id })
	maps.DeleteFunc(r.in, func(sid streamID, _ *recvStream) bool { return sid.from == id || sid.to == id })
}

// Drained reports whether every envelope this site sent has been
// acknowledged — none is still waiting to land. The reconfiguration drain
// asks it before retiring a departing site: tearing the streams down earlier
// would drop the site's final release and transfer messages in flight and
// strand the locks they hand over.
func (r *reliable) Drained() bool {
	for _, out := range r.out {
		if len(out.unacked) > 0 {
			return false
		}
	}
	return true
}

// Requeue makes every envelope still unacknowledged at the site due now: the
// connection that carried them broke, taking whatever its socket held.
func (r *reliable) Requeue(to mutex.SiteID) {
	now := r.clock.Now()
	for id, ss := range r.out {
		if id.to == to {
			for i := range ss.unacked {
				ss.unacked[i].due = now
			}
		}
	}
}

// resend makes one unacknowledged envelope due now: the peer reported it
// missing behind later arrivals. A report for an envelope already acked is
// stale and ignored.
func (r *reliable) resend(id streamID, seq uint64) {
	ss := r.out[id]
	if ss == nil {
		return
	}
	for i := range ss.unacked {
		if ss.unacked[i].env.Seq == seq {
			ss.unacked[i].due = r.clock.Now()
			return
		}
	}
}

// ReviveSite clears the dead mark of a site ID so it can be reused by a
// later configuration (a grow after a shrink, or a crash-replace restart).
// Streams were already torn down at death, so the revived site starts from
// fresh sequence state on both sides.
func (r *reliable) ReviveSite(id mutex.SiteID) {
	delete(r.dead, id)
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

// prepare stamps one outgoing envelope — piggybacked ack, sequence number,
// retransmission entry — and reports whether it should reach the wire at all
// (traffic involving a dead site is discarded).
func (r *reliable) prepare(env *mutex.Envelope) bool {
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
		due: r.clock.Now().Add(r.backoff(0)),
	})
	r.work()
	return true
}

// Receive ingests one envelope off the wire: it applies the piggybacked ack
// and any gap report, passes transport-level frames straight up, and runs
// sequenced traffic through the dedup/reorder machinery so exactly the next
// in-order suffix is delivered, in order, before it returns.
func (r *reliable) Receive(env mutex.Envelope) {
	if r.dead[env.From] || r.dead[env.To] {
		return
	}
	if env.Ack > 0 {
		r.ack(streamID{from: env.To, to: env.From}, env.Ack)
	}
	if !env.HasPayload() {
		// A standalone ack frame, fully consumed above, or a gap report.
		if env.Seq > 0 {
			r.resend(streamID{from: env.To, to: env.From}, env.Seq)
		}
		return
	}
	if env.Seq == 0 {
		r.deliver(env) // heartbeat and friends: best-effort, unordered
		return
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
		r.noteAck(rs)
		r.emit(obs.Event{Type: obs.EventDupDrop, Site: env.To, Peer: env.From, Time: obs.Now()})
		return
	}
	if env.Seq != rs.delivered+1 {
		// A gap: park the envelope until retransmission fills it. A gap
		// opening now is reported if it is still open after nackGrace.
		if len(rs.buffer) == 0 {
			rs.nackAt = r.clock.Now().Add(nackGrace)
		}
		if _, dup := rs.buffer[env.Seq]; dup {
			r.emit(obs.Event{Type: obs.EventDupDrop, Site: env.To, Peer: env.From, Time: obs.Now()})
		} else {
			rs.buffer[env.Seq] = env
		}
		r.noteAck(rs)
		return
	}
	// In order: deliver it and drain whatever the buffer now makes
	// contiguous. A delivery may send, piggybacking the horizon reached so
	// far.
	r.noteAck(rs)
	for {
		rs.delivered++
		r.deliver(env)
		next, ok := rs.buffer[rs.delivered+1]
		if !ok {
			break
		}
		delete(rs.buffer, rs.delivered+1)
		env = next
	}
	if len(rs.buffer) > 0 {
		// The old gap filled, but a later one remains: its grace starts now.
		rs.nackAt = r.clock.Now().Add(nackGrace)
	}
}

// ack clears the acknowledged prefix of a send stream.
func (r *reliable) ack(id streamID, ack uint64) {
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

// noteAck arms the idle standalone-ack flush for a receive stream.
func (r *reliable) noteAck(rs *recvStream) {
	if !rs.ackDue {
		rs.ackDue = true
		rs.ackAt = r.clock.Now().Add(ackGrace)
		r.work()
	}
}

// emit reports one transport-level event. Sinks are obs collectors and
// observers, which never call back into this layer.
func (r *reliable) emit(e obs.Event) {
	if r.sink != nil {
		r.sink(e)
	}
}

// rand advances the jitter PRNG (splitmix-style).
func (r *reliable) rand() float64 {
	r.rng += 0x9e3779b97f4a7c15
	x := r.rng
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// backoff returns the retransmission delay for the given attempt:
// exponential from rtxBase, capped at rtxMax, with ±25% jitter so N streams
// recovering from one outage do not retransmit in lockstep.
func (r *reliable) backoff(attempt uint) time.Duration {
	d := rtxBase
	for i := uint(0); i < attempt && d < rtxMax; i++ {
		d *= 2
	}
	if d > rtxMax {
		d = rtxMax
	}
	return time.Duration(float64(d) * (0.75 + 0.5*r.rand()))
}

// flush is one pass of the loop's flush timer: it puts due retransmissions,
// gap reports and standalone acks on the wire in one batch, and reports
// whether anything is left to retransmit, report or acknowledge — whether
// the timer should run again in relTick or park until the layer next takes
// on work.
func (r *reliable) flush() (busy bool) {
	now := r.clock.Now()
	batch := r.batch[:0]
	for id, ss := range r.out {
		busy = busy || len(ss.unacked) > 0
		for i := range ss.unacked {
			p := &ss.unacked[i]
			if now.Before(p.due) {
				continue
			}
			p.attempt++
			p.due = now.Add(r.backoff(p.attempt))
			e := p.env
			// Refresh the piggybacked ack: the retransmitted copy carries the
			// current reverse-stream horizon, not the one from first send.
			if rs := r.in[streamID{from: id.to, to: id.from}]; rs != nil {
				e.Ack = rs.delivered
				rs.ackDue = false
			}
			batch = append(batch, e)
			if r.sink != nil {
				r.sink(obs.Event{
					Type: obs.EventRetransmit, Site: e.From, Peer: e.To,
					Kind: e.Kind(), Resource: e.Resource, Time: obs.Now(),
				})
			}
		}
	}
	for id, rs := range r.in {
		if len(rs.buffer) > 0 {
			busy = true
			if !now.Before(rs.nackAt) {
				// The gap outlived its grace: report it, with the ack.
				rs.nackAt = now.Add(nackGrace)
				rs.ackDue = false
				batch = append(batch, mutex.Envelope{From: id.to, To: id.from, Ack: rs.delivered, Seq: rs.delivered + 1})
				r.emit(obs.Event{Type: obs.EventAckSend, Site: id.to, Peer: id.from, Time: obs.Now()})
				continue
			}
		}
		if !rs.ackDue {
			continue
		}
		if now.Before(rs.ackAt) {
			busy = true
			continue
		}
		rs.ackDue = false
		batch = append(batch, mutex.Envelope{From: id.to, To: id.from, Ack: rs.delivered})
		r.emit(obs.Event{Type: obs.EventAckSend, Site: id.to, Peer: id.from, Time: obs.Now()})
	}
	if len(batch) > 0 {
		_ = r.raw.SendBatch(batch)
	}
	clear(batch)
	r.batch = batch
	return busy
}
