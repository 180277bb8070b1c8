// Package chaos is the adversarial-testing layer for the live protocol
// stack: a seeded fault-injecting message fabric that sits between the
// in-process transport's senders and mailboxes, plus a conformance checker
// (checker.go) that consumes the internal/obs event stream and asserts the
// paper's safety and cost claims while the faults are running.
//
// The fabric injects message drop, duplication, reordering, bounded latency,
// and scheduled network partitions; site crashes ride on the existing §6
// failure-notification path (transport.Cluster.KillSite). Every decision is
// drawn from a deterministic counter-hash of the plan's single seed and the
// message's (resource, from, to) stream position, so replaying a seed
// replays the per-stream fault decisions exactly even though goroutine
// scheduling still varies across runs. Failing tests print the seed;
// DQMX_CHAOS_SEED replays one schedule in isolation.
//
// Semantics of the knobs:
//
//   - Drop loses the wire copy of a message. The transport's reliable-
//     delivery sublayer sits above the fabric and retransmits until an
//     acknowledgement lands, so a drop-only plan merely delays the protocol:
//     liveness is a checkable claim on such schedules (LivenessExpected).
//   - MinDelay/MaxDelay add bounded latency while preserving per-stream
//     FIFO order, staying inside the paper's channel model.
//   - Reorder lets a message fall behind later traffic of its own stream —
//     a wire-level FIFO violation the sublayer's reorder buffer heals.
//   - Duplicate delivers the wire copy twice; the sublayer's dedup collapses
//     it back to exactly-once before the protocol sees it.
//   - Partitions drop messages crossing the group boundary during a time
//     window (evaluated at delivery time, so delayed messages cannot tunnel
//     through a cut). A partition outlasting the workload's patience can
//     still legitimately stall acquires, so partition schedules assert
//     safety only.
//
// Fabric decisions are keyed by each stream's transmission counter, not the
// sublayer's sequence numbers: a retransmitted copy is a new transmission
// and gets a fresh draw (keying on the sequence number would make a dropped
// message's every retransmission repeat the same drop verdict forever).
// Replaying a seed therefore reproduces the per-transmission decision
// sequence exactly, while which protocol message each decision lands on
// still varies with retransmission timing.
package chaos

import (
	"container/heap"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"dqmx/internal/clock"
	"dqmx/internal/mutex"
)

// SeedEnv is the environment variable that replays a single schedule: sweep
// runners that see it run only that seed.
const SeedEnv = "DQMX_CHAOS_SEED"

// SeedOverride reports the replay seed from the environment, if any.
func SeedOverride() (int64, bool) {
	v := os.Getenv(SeedEnv)
	if v == "" {
		return 0, false
	}
	seed, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, false
	}
	return seed, true
}

// Partition isolates Group from the rest of the sites during [Start, End)
// (measured from fabric start): messages with exactly one endpoint inside
// the group are dropped at delivery time.
type Partition struct {
	Start, End time.Duration
	Group      []mutex.SiteID
}

// Crash schedules a site kill After the fabric starts; the transport layer
// executes it through the §6 failure path (every surviving site receives a
// failure notification per instantiated resource once DetectAfter elapses).
type Crash struct {
	After       time.Duration
	Site        mutex.SiteID
	DetectAfter time.Duration
}

// Plan is one schedule of faults, fully determined by its fields. The zero
// value injects nothing (the fabric becomes a transparent pass-through).
type Plan struct {
	// Seed drives every probabilistic decision. Two runs with the same plan
	// make identical per-stream decisions.
	Seed int64
	// Drop is the per-message loss probability (0..1).
	Drop float64
	// Duplicate is the per-message duplication probability (0..1).
	Duplicate float64
	// Reorder is the probability a message is held back behind later
	// traffic of its own stream (0..1).
	Reorder float64
	// MinDelay/MaxDelay bound the extra latency added to every delivery.
	MinDelay, MaxDelay time.Duration
	// Partitions are scheduled connectivity cuts.
	Partitions []Partition
	// Crashes are scheduled site kills (executed by the transport layer).
	Crashes []Crash
}

// Quiet reports whether the plan injects nothing at all.
func (p Plan) Quiet() bool {
	return p.Drop == 0 && p.Duplicate == 0 && p.Reorder == 0 &&
		p.MaxDelay == 0 && p.MinDelay == 0 &&
		len(p.Partitions) == 0 && len(p.Crashes) == 0
}

// LivenessExpected reports whether the protocol stack must stay live under
// the plan: every fault it injects — drop, duplication, reordering, delay —
// is healed by the transport's reliable-delivery sublayer. Only crashes and
// partitions remain outside the liveness contract (a crash can strand a
// round at the victim and a long cut can outlast any finite patience), so
// schedules without either must complete every acquire.
func (p Plan) LivenessExpected() bool {
	return len(p.Crashes) == 0 && len(p.Partitions) == 0
}

// String summarizes the plan for failure reports, always naming the seed.
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", p.Seed)
	if p.Drop > 0 {
		fmt.Fprintf(&b, " drop=%.3f", p.Drop)
	}
	if p.Duplicate > 0 {
		fmt.Fprintf(&b, " dup=%.3f", p.Duplicate)
	}
	if p.Reorder > 0 {
		fmt.Fprintf(&b, " reorder=%.3f", p.Reorder)
	}
	if p.MaxDelay > 0 || p.MinDelay > 0 {
		fmt.Fprintf(&b, " delay=[%v,%v]", p.MinDelay, p.MaxDelay)
	}
	for _, pt := range p.Partitions {
		fmt.Fprintf(&b, " partition=%v@[%v,%v)", pt.Group, pt.Start, pt.End)
	}
	for _, cr := range p.Crashes {
		fmt.Fprintf(&b, " crash=%d@%v(detect %v)", cr.Site, cr.After, cr.DetectAfter)
	}
	return b.String()
}

// DeliverFunc injects one envelope into the destination's mailbox. The
// transport layer supplies it.
type DeliverFunc func(env mutex.Envelope) error

// streamKey identifies one FIFO channel of the protocol's network model.
type streamKey struct {
	resource string
	from, to mutex.SiteID
}

// streamState carries the per-stream decision counter (the determinism
// anchor) and the FIFO horizon used to keep plain latency order-preserving.
type streamState struct {
	n      uint64    // messages decided so far on this stream
	lastAt time.Time // latest scheduled delivery of an in-order message
}

// delayedEnv is one message waiting in the fabric's delay queue.
type delayedEnv struct {
	at  time.Time
	seq uint64 // FIFO tiebreak for equal deadlines
	env mutex.Envelope
}

type delayHeap []delayedEnv

func (h delayHeap) Len() int { return len(h) }
func (h delayHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h delayHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *delayHeap) Push(x any)   { *h = append(*h, x.(delayedEnv)) }
func (h *delayHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// Fabric is the chaos message layer: a transport.Sender/BatchSender that
// applies the plan's faults before handing envelopes to the real transport.
type Fabric struct {
	plan    Plan
	deliver DeliverFunc
	clock   clock.Clock // the owning cluster's: delays, partition windows
	start   time.Time

	mu      sync.Mutex
	streams map[streamKey]*streamState
	crashed map[mutex.SiteID]bool
	pq      delayHeap
	seq     uint64
	wake    chan struct{}

	stopOnce sync.Once
	stopC    chan struct{}
	doneC    chan struct{}
}

// NewFabric starts a fabric applying plan on top of deliver, timed by clk.
func NewFabric(plan Plan, deliver DeliverFunc, clk clock.Clock) *Fabric {
	f := &Fabric{
		plan:    plan,
		deliver: deliver,
		clock:   clk,
		start:   clk.Now(),
		streams: make(map[streamKey]*streamState),
		crashed: make(map[mutex.SiteID]bool),
		wake:    make(chan struct{}, 1),
		stopC:   make(chan struct{}),
		doneC:   make(chan struct{}),
	}
	go f.pump()
	return f
}

// MarkCrashed silences a site: subsequent messages from or to it are
// dropped. The transport's crash scheduler calls it alongside KillSite.
func (f *Fabric) MarkCrashed(id mutex.SiteID) {
	f.mu.Lock()
	f.crashed[id] = true
	f.mu.Unlock()
}

// Close stops the delay pump; queued deliveries are discarded.
func (f *Fabric) Close() {
	f.stopOnce.Do(func() { close(f.stopC) })
	<-f.doneC
}

// splitmix64 is the counter-hash behind every decision: a tiny, well-mixed
// PRNG keyed by (seed, stream, message index, purpose) so decisions are
// independent of cross-stream goroutine interleaving.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// draw returns a uniform float64 in [0,1) for the k-th message of a stream
// and a given purpose (drop/dup/reorder/delay draw separately so toggling
// one knob does not shift the others' decisions).
func (f *Fabric) draw(key streamKey, k uint64, purpose uint64) float64 {
	x := uint64(f.plan.Seed)
	x = splitmix64(x ^ hashString(key.resource))
	x = splitmix64(x ^ uint64(key.from)<<32 ^ uint64(uint32(key.to)))
	x = splitmix64(x ^ k)
	x = splitmix64(x ^ purpose)
	return float64(x>>11) / float64(1<<53)
}

const (
	purposeDrop uint64 = iota + 1
	purposeDup
	purposeReorder
	purposeDelay
	purposeReorderSpan
)

// partitioned reports whether a cut separates from and to at elapsed time d.
func (p Plan) partitioned(from, to mutex.SiteID, d time.Duration) bool {
	for _, pt := range p.Partitions {
		if d < pt.Start || d >= pt.End {
			continue
		}
		var inFrom, inTo bool
		for _, s := range pt.Group {
			if s == from {
				inFrom = true
			}
			if s == to {
				inTo = true
			}
		}
		if inFrom != inTo {
			return true
		}
	}
	return false
}

// Send implements transport.Sender.
func (f *Fabric) Send(env mutex.Envelope) error {
	key := streamKey{resource: env.Resource, from: env.From, to: env.To}

	f.mu.Lock()
	if f.crashed[env.From] || f.crashed[env.To] {
		f.mu.Unlock()
		return nil
	}
	st := f.streams[key]
	if st == nil {
		st = &streamState{}
		f.streams[key] = st
	}
	k := st.n
	st.n++
	if f.plan.Drop > 0 && f.draw(key, k, purposeDrop) < f.plan.Drop {
		f.mu.Unlock()
		return nil
	}
	dup := f.plan.Duplicate > 0 && f.draw(key, k, purposeDup) < f.plan.Duplicate
	now := f.clock.Now()
	delay := f.plan.MinDelay
	if span := f.plan.MaxDelay - f.plan.MinDelay; span > 0 {
		delay += time.Duration(f.draw(key, k, purposeDelay) * float64(span))
	}
	at := now.Add(delay)
	if f.plan.Reorder > 0 && f.draw(key, k, purposeReorder) < f.plan.Reorder {
		// Held back: later traffic of this stream may overtake it. The extra
		// hold-back spans a few delay windows so the overtake is real even
		// when MaxDelay is small.
		extra := time.Duration(f.draw(key, k, purposeReorderSpan) * float64(2*f.plan.MaxDelay+time.Millisecond))
		at = at.Add(extra)
	} else {
		// Plain latency preserves the channel's FIFO order: never schedule
		// before an earlier in-order message of the same stream.
		if at.Before(st.lastAt) {
			at = st.lastAt
		}
		st.lastAt = at
	}
	if !at.After(now) && len(f.pq) == 0 {
		// Fast path: nothing queued and no delay due — deliver inline on the
		// sender's goroutine, exactly like the raw transport.
		f.mu.Unlock()
		f.deliverNow(env)
		if dup {
			f.deliverNow(env)
		}
		return nil
	}
	f.push(delayedEnv{at: at, env: env})
	if dup {
		f.push(delayedEnv{at: at, env: env})
	}
	f.mu.Unlock()
	select {
	case f.wake <- struct{}{}:
	default:
	}
	return nil
}

// SendBatch implements transport.BatchSender. Chaos decisions are
// per-message, so the batch is simply processed in order.
func (f *Fabric) SendBatch(envs []mutex.Envelope) error {
	for _, env := range envs {
		if err := f.Send(env); err != nil {
			return err
		}
	}
	return nil
}

// push queues one delayed delivery; the caller holds f.mu.
func (f *Fabric) push(d delayedEnv) {
	d.seq = f.seq
	f.seq++
	heap.Push(&f.pq, d)
}

// deliverNow applies the delivery-time checks (partitions, crashes) and
// hands the envelope to the transport.
func (f *Fabric) deliverNow(env mutex.Envelope) {
	f.mu.Lock()
	dead := f.crashed[env.From] || f.crashed[env.To]
	cut := f.plan.partitioned(env.From, env.To, f.clock.Now().Sub(f.start))
	f.mu.Unlock()
	if dead || cut {
		return
	}
	// Reliable-channel model: a delivery error means the destination is
	// gone, which the failure protocol handles.
	_ = f.deliver(env)
}

// pump drains the delay queue in deadline order on a dedicated goroutine.
func (f *Fabric) pump() {
	defer close(f.doneC)
	timer := f.clock.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		f.mu.Lock()
		wait := time.Hour
		if len(f.pq) > 0 {
			now := f.clock.Now()
			if !f.pq[0].at.After(now) {
				next := heap.Pop(&f.pq).(delayedEnv)
				f.mu.Unlock()
				f.deliverNow(next.env)
				continue
			}
			wait = f.pq[0].at.Sub(now)
		}
		f.mu.Unlock()
		timer.Reset(wait)
		select {
		case <-timer.C():
		case <-f.wake:
		case <-f.stopC:
			return
		}
	}
}
