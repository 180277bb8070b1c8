package transport

// White-box tests of the reliable-delivery sublayer: a site loop owns the
// layer, and a scripted lossy wire loops the layer's raw sends back into its
// own receive side on that loop, so drop, duplication, and reordering
// recovery are assertable without a network.
// The file also pins the two accounting contracts the layer must keep:
// transport traffic is invisible to obs message tallies, and a TCP pair
// survives deterministic writer-side frame loss.

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dqmx/internal/chaos"
	"dqmx/internal/clock"
	"dqmx/internal/core"
	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
	"dqmx/internal/obs"
	"dqmx/internal/timestamp"
)

// relTestMsg is a sequenced protocol payload for wire tests.
type relTestMsg struct {
	N int
}

func (relTestMsg) Kind() string { return "test" }

// scriptedWire loops sends back into the layer's receive side, consulting a
// per-transmission script (n counts every frame the wire carries, acks and
// retransmissions included). The layer sends on its loop, so the loopback
// runs there too.
type scriptedWire struct {
	rel *reliable

	mu     sync.Mutex
	n      int
	drop   func(n int, env mutex.Envelope) bool
	dupAll bool
	sent   int
}

func (w *scriptedWire) Send(env mutex.Envelope) error {
	w.mu.Lock()
	n := w.n
	w.n++
	w.sent++
	drop := w.drop != nil && w.drop(n, env)
	dup := w.dupAll
	w.mu.Unlock()
	if drop {
		return nil
	}
	w.rel.Receive(env)
	if dup {
		w.rel.Receive(env)
	}
	return nil
}

func (w *scriptedWire) SendBatch(envs []mutex.Envelope) error { return sendEach(w.Send, envs) }

func (w *scriptedWire) sentCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sent
}

// collector accumulates upward deliveries.
type collector struct {
	mu  sync.Mutex
	got []mutex.Envelope
}

func (c *collector) deliver(env mutex.Envelope) {
	c.mu.Lock()
	c.got = append(c.got, env)
	c.mu.Unlock()
}

func (c *collector) snapshot() []mutex.Envelope {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]mutex.Envelope(nil), c.got...)
}

// relLoop is a site loop that owns a reliable layer and no lock instance:
// what the layer delivers goes to a collector.
type relLoop struct {
	h *host
}

// startReliable wires a site loop's reliable layer on the host clock to a
// scripted wire and returns both.
func startReliable(t *testing.T, sink obs.Sink) (relLoop, *scriptedWire, *collector) {
	t.Helper()
	return startReliableOn(t, clock.Real, sink)
}

// startReliableManual is startReliable on a manual clock, returned once the
// loop waits on its flush timer.
func startReliableManual(t *testing.T, sink obs.Sink) (relLoop, *scriptedWire, *collector, *manualClock) {
	t.Helper()
	clk := newManualClock()
	r, w, col := startReliableOn(t, clk, sink)
	clk.awaitReaders(1)
	return r, w, col, clk
}

func startReliableOn(t *testing.T, clk clock.Clock, sink obs.Sink) (relLoop, *scriptedWire, *collector) {
	col := &collector{}
	w := &scriptedWire{}
	r := startRelLoop(t, w, clk, col.deliver, sink)
	w.rel = r.h.rel
	return r, w, col
}

// startRelLoop starts a site loop whose reliable layer sends over wire.
func startRelLoop(t *testing.T, wire BatchSender, clk clock.Clock, deliver func(mutex.Envelope), sink obs.Sink) relLoop {
	var stage atomic.Uint64
	h := newHost(0, nil, wire, clk, deliver, sink, &stage, newDeadSet(), nil)
	t.Cleanup(h.close)
	return relLoop{h: h}
}

// on runs fn on the loop, with its layer, and waits for it.
func (r relLoop) on(fn func(rel *reliable)) {
	if err := r.h.onLoop(func() { fn(r.h.rel) }); err != nil {
		panic(err)
	}
}

// Send sends env through the layer, as one step of the loop.
func (r relLoop) Send(env mutex.Envelope) error {
	var err error
	r.on(func(rel *reliable) { err = rel.Send(env) })
	return err
}

// Receive hands the layer env as if it came off the wire, as one step of
// the loop.
func (r relLoop) Receive(env mutex.Envelope) {
	r.on(func(rel *reliable) { rel.Receive(env) })
}

// unacked counts the envelopes still waiting for an ack on stream id, or on
// every stream when id is the zero streamID.
func (r relLoop) unacked(id streamID) int {
	n := 0
	r.on(func(rel *reliable) {
		for sid, ss := range rel.out {
			if id == (streamID{}) || sid == id {
				n += len(ss.unacked)
			}
		}
	})
	return n
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestReliableHealsDrops drives 50 envelopes through a wire losing every
// third frame: the protocol side must still see all 50, exactly once, in
// order, and the sender's retransmission queue must drain. The payloads
// alternate between the two carriers: an inline body is protocol traffic
// exactly as a message behind Msg is, sequenced and retransmitted.
func TestReliableHealsDrops(t *testing.T) {
	r, w, col := startReliable(t, nil)
	w.mu.Lock()
	w.drop = func(n int, env mutex.Envelope) bool { return n%3 == 2 }
	w.mu.Unlock()

	const total = 50
	for i := 0; i < total; i++ {
		env := mutex.Envelope{From: 0, To: 1, Msg: relTestMsg{N: i}}
		if i%2 == 1 {
			env.Msg, env.Body = nil, mutex.Body{Kind: mutex.BodyYield, TS: timestamp.Timestamp{Seq: uint64(i)}}
		}
		if err := r.Send(env); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 30*time.Second, func() bool { return len(col.snapshot()) >= total }, "all envelopes delivered")
	got := col.snapshot()
	if len(got) != total {
		t.Fatalf("delivered %d envelopes, want exactly %d", len(got), total)
	}
	for i, env := range got {
		n := int(env.Body.TS.Seq)
		if msg, ok := env.Msg.(relTestMsg); ok {
			n = msg.N
		}
		if n != i {
			t.Fatalf("delivery %d carries payload %d: FIFO order broken", i, n)
		}
	}
	// The sender must settle: every retransmission eventually acked.
	waitFor(t, 30*time.Second, func() bool {
		return r.unacked(streamID{from: 0, to: 1}) == 0
	}, "retransmission queue to drain")
}

// TestReliableDedup duplicates every wire frame: deliveries stay exactly
// once and the suppression is reported through the transport-level events.
func TestReliableDedup(t *testing.T) {
	var evMu sync.Mutex
	var dups int
	sink := func(e obs.Event) {
		if e.Type == obs.EventDupDrop {
			evMu.Lock()
			dups++
			evMu.Unlock()
		}
	}
	r, w, col := startReliable(t, sink)
	w.mu.Lock()
	w.dupAll = true
	w.mu.Unlock()

	const total = 20
	for i := 0; i < total; i++ {
		if err := r.Send(mutex.Envelope{From: 2, To: 3, Msg: relTestMsg{N: i}}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return len(col.snapshot()) >= total }, "all envelopes delivered")
	if got := col.snapshot(); len(got) != total {
		t.Fatalf("delivered %d envelopes under duplication, want exactly %d", len(got), total)
	}
	evMu.Lock()
	defer evMu.Unlock()
	if dups < total {
		t.Errorf("suppressed %d duplicates, want at least %d", dups, total)
	}
}

// TestReliableReorder swaps adjacent wire frames: the reorder buffer must
// restore per-stream FIFO before delivery.
func TestReliableReorder(t *testing.T) {
	col := &collector{}
	// A reordering wire: hold every even-indexed protocol frame and release
	// it after the following frame, swapping pairs on the wire. It runs on
	// the loop, which sends.
	var rel *reliable
	var held *mutex.Envelope
	w := senderFunc(func(env mutex.Envelope) error {
		if env.Seq == 0 {
			rel.Receive(env)
			return nil
		}
		if held == nil {
			e := env
			held = &e
			return nil
		}
		first, second := env, *held
		held = nil
		rel.Receive(first)
		rel.Receive(second)
		return nil
	})
	r := startRelLoop(t, w, clock.Real, col.deliver, nil)
	r.on(func(l *reliable) { rel = l })

	const total = 10
	for i := 0; i < total; i++ {
		if err := r.Send(mutex.Envelope{From: 4, To: 5, Msg: relTestMsg{N: i}}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return len(col.snapshot()) >= total }, "all envelopes delivered")
	for i, env := range col.snapshot() {
		if msg := env.Msg.(relTestMsg); msg.N != i {
			t.Fatalf("delivery %d carries payload %d: reorder buffer failed", i, msg.N)
		}
	}
}

// senderFunc adapts a function to the BatchSender interface.
type senderFunc func(env mutex.Envelope) error

func (f senderFunc) Send(env mutex.Envelope) error { return f(env) }

func (f senderFunc) SendBatch(envs []mutex.Envelope) error { return sendEach(f, envs) }

// sendEach sends a batch one envelope at a time, for the test wires.
func sendEach(send func(mutex.Envelope) error, envs []mutex.Envelope) error {
	for _, env := range envs {
		if err := send(env); err != nil {
			return err
		}
	}
	return nil
}

// TestReliablePeerFailedStopsRetransmission cuts the wire to a peer, lets
// the retransmission loop run, then declares the peer dead: the babbling
// must stop and the stream state must be gone.
func TestReliablePeerFailedStopsRetransmission(t *testing.T) {
	r, w, _, clk := startReliableManual(t, nil)
	w.mu.Lock()
	w.drop = func(n int, env mutex.Envelope) bool { return env.To == 9 }
	w.mu.Unlock()

	for i := 0; i < 3; i++ {
		if err := r.Send(mutex.Envelope{From: 0, To: 9, Msg: relTestMsg{N: i}}); err != nil {
			t.Fatal(err)
		}
	}
	// The first retransmission wave at the dead peer is due within the
	// jitter band of rtxBase and leaves on the next flush pass.
	base := w.sentCount()
	clk.Advance(rtxBase*5/4 + relTick)
	if w.sentCount() == base {
		t.Fatal("no retransmission by 1.25·rtxBase + relTick")
	}

	var haveOut bool
	r.on(func(rel *reliable) {
		rel.PeerFailed(9)
		_, haveOut = rel.out[streamID{from: 0, to: 9}]
	})
	if haveOut {
		t.Fatal("send stream to the dead peer survived PeerFailed")
	}
	// No further wire traffic, across ten capped backoff windows.
	after := w.sentCount()
	clk.Advance(10 * rtxMax)
	if got := w.sentCount(); got != after {
		t.Fatalf("wire saw %d new frames after PeerFailed", got-after)
	}
	// Sends to the dead peer are discarded outright.
	if err := r.Send(mutex.Envelope{From: 0, To: 9, Msg: relTestMsg{N: 99}}); err != nil {
		t.Fatal(err)
	}
	if got := w.sentCount(); got != after {
		t.Fatal("a send to a declared-dead peer reached the wire")
	}
}

// TestReliableBackoffExact pins the retransmission schedule on the manual
// clock. An envelope whose acks never come back is first re-sent no sooner
// than 0.75·rtxBase and no later than the flush pass after 1.25·rtxBase;
// each later gap is the previous backoff doubled, capped at rtxMax, inside
// the same ±25% band.
func TestReliableBackoffExact(t *testing.T) {
	r, w, _, clk := startReliableManual(t, nil)
	start := clk.Now()
	var at []time.Duration // wire times of the envelope's copies
	w.mu.Lock()
	w.drop = func(n int, env mutex.Envelope) bool {
		if env.Seq != 0 {
			at = append(at, clk.Since(start))
		}
		return true
	}
	w.mu.Unlock()
	if err := r.Send(mutex.Envelope{From: 0, To: 9, Msg: relTestMsg{N: 1}}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * rtxMax)

	w.mu.Lock()
	defer w.mu.Unlock()
	if len(at) < 8 {
		t.Fatalf("%d copies in 10·rtxMax, want the first send and at least 7 retransmissions: %v", len(at), at)
	}
	backoff := rtxBase
	for k := 1; k < len(at); k++ {
		gap := at[k] - at[k-1]
		if lo, hi := backoff*3/4, backoff*5/4+relTick; gap < lo || gap > hi {
			t.Fatalf("retransmission %d came %v after the copy before it, want [%v, %v] (backoff %v): %v", k, gap, lo, hi, backoff, at)
		}
		backoff = min(2*backoff, rtxMax)
	}
}

// TestReliableAckGraceExact: a receiver with nothing to send back flushes a
// standalone ack on the first flush pass at least ackGrace after the
// delivery it acknowledges, and never before, wherever the delivery falls
// between two passes.
func TestReliableAckGraceExact(t *testing.T) {
	r, w, _, clk := startReliableManual(t, nil)
	var received time.Time
	var acks []time.Duration // ack delays after their delivery
	w.mu.Lock()
	w.drop = func(n int, env mutex.Envelope) bool {
		if !env.HasPayload() {
			acks = append(acks, clk.Since(received))
		}
		return true
	}
	w.mu.Unlock()
	ackCount := func() int {
		w.mu.Lock()
		defer w.mu.Unlock()
		return len(acks)
	}
	for i, offset := range []time.Duration{0, relTick / 4, relTick / 2, relTick * 3 / 4} {
		clk.Advance(offset)
		received = clk.Now()
		r.Receive(mutex.Envelope{From: 9, To: 0, Seq: uint64(i + 1), Msg: relTestMsg{N: i}})
		clk.Advance(ackGrace - time.Nanosecond)
		if got := ackCount(); got != i {
			t.Fatalf("delivery %d: an ack left before ackGrace (%d acks)", i, got-i)
		}
		clk.Advance(relTick + time.Nanosecond)
		if got := ackCount(); got != i+1 {
			t.Fatalf("delivery %d: %d acks by ackGrace + relTick, want 1", i, got-i)
		}
		if d := acks[i]; d < ackGrace || d > ackGrace+relTick {
			t.Fatalf("delivery %d: ack left %v after it, want [%v, %v]", i, d, ackGrace, ackGrace+relTick)
		}
	}
}

// TestReliableGapReportExact: a loss with later traffic behind it heals on
// the gap report, not on the backoff. The receiver reports the missing
// envelope on the first flush pass at least nackGrace after the gap opened,
// never before, and once only; the sender re-sends it on its next pass, long
// before the first retransmission would be due.
func TestReliableGapReportExact(t *testing.T) {
	r, w, col, clk := startReliableManual(t, nil)
	start := clk.Now()
	var reports, copies []time.Duration // wire times of gap reports and of seq 1's copies
	w.mu.Lock()
	w.drop = func(n int, env mutex.Envelope) bool {
		switch {
		case !env.HasPayload() && env.Seq > 0:
			reports = append(reports, clk.Since(start))
		case env.Seq == 1:
			copies = append(copies, clk.Since(start))
			return len(copies) == 1 // the first send is lost
		}
		return false
	}
	w.mu.Unlock()
	seen := func() (int, int) {
		w.mu.Lock()
		defer w.mu.Unlock()
		return len(reports), len(copies)
	}
	for i := 0; i < 2; i++ {
		if err := r.Send(mutex.Envelope{From: 0, To: 9, Msg: relTestMsg{N: i}}); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(nackGrace - time.Nanosecond)
	if nr, nc := seen(); nr != 0 || nc != 1 {
		t.Fatalf("before nackGrace: %d gap reports and %d copies of seq 1, want 0 and 1", nr, nc)
	}
	clk.Advance(relTick + time.Nanosecond)
	if nr, _ := seen(); nr != 1 {
		t.Fatalf("%d gap reports by nackGrace + relTick, want 1", nr)
	}
	clk.Advance(relTick)
	if _, nc := seen(); nc != 2 {
		t.Fatalf("%d copies of seq 1 one pass after the gap report, want 2", nc)
	}
	clk.Advance(2 * nackGrace)
	if nr, nc := seen(); nr != 1 || nc != 2 {
		t.Fatalf("after the gap filled: %d gap reports and %d copies of seq 1, want 1 and 2", nr, nc)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if d := reports[0]; d < nackGrace || d > nackGrace+relTick {
		t.Errorf("gap report left %v after the gap opened, want [%v, %v]", d, nackGrace, nackGrace+relTick)
	}
	if d := copies[1] - reports[0]; d > relTick {
		t.Errorf("seq 1 re-sent %v after the gap report, want within one pass (%v)", d, relTick)
	}
	if copies[1] >= rtxBase*3/4 {
		t.Errorf("seq 1 re-sent at %v, not before its backoff (>= %v)", copies[1], rtxBase*3/4)
	}
	got := col.snapshot()
	if len(got) != 2 || got[0].Msg.(relTestMsg).N != 0 || got[1].Msg.(relTestMsg).N != 1 {
		t.Errorf("delivered %v, want payloads 0 then 1", got)
	}
}

// TestTransportTrafficExcludedFromCounts is the obs-accounting contract: a
// quiet lossless run reports byte-identical protocol message tallies whether
// the reliability layer is on (a cluster over a fault-free chaos plan) or
// absent (a plain cluster), because sequencing, acks, and (absent faults,
// zero) retransmissions are all below the EventSend emission point. The
// per-event totals differ only in the transport-level extras.
func TestTransportTrafficExcludedFromCounts(t *testing.T) {
	run := func(layered bool) (obs.Snapshot, *Cluster) {
		t.Helper()
		m := obs.NewMetrics()
		cfg := ClusterConfig{Algorithm: core.Algorithm{}, N: 5, Metrics: m}
		if layered {
			cfg.Chaos = &chaos.Plan{}
		}
		cluster, err := NewClusterConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		// Uncontended sequential rounds: the protocol's message pattern is
		// deterministic (request/reply/release waves only), so tallies are
		// exactly comparable across runs.
		for round := 0; round < 3; round++ {
			for id := 0; id < cluster.N(); id++ {
				node := cluster.Node(mutex.SiteID(id))
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				err := node.Acquire(ctx)
				cancel()
				if err != nil {
					t.Fatalf("site %d round %d: %v", id, round, err)
				}
				if err := node.Release(); err != nil {
					t.Fatalf("site %d round %d release: %v", id, round, err)
				}
			}
		}
		snap, ok := cluster.Snapshot()
		if !ok {
			t.Fatal("metrics missing")
		}
		return snap, cluster
	}

	// The rounds are sequential, but only each site's own inputs are
	// ordered: should a request still overtake the previous holder's
	// release at an arbiter, it draws a fail and a transfer. Such a run is
	// legitimate but not comparable message for message; it is repeated.
	uncontended := run
	run = func(layered bool) (obs.Snapshot, *Cluster) {
		for attempt := 0; attempt < 20; attempt++ {
			snap, c := uncontended(layered)
			if snap.ByKind[mutex.KindTransfer]+snap.ByKind[mutex.KindFail] == 0 {
				return snap, c
			}
		}
		t.Fatal("20 sequential runs in a row drew a fail or a transfer: the rounds contend every time")
		panic("unreachable")
	}

	withRel, relCluster := run(true)
	if relCluster.host(0).rel == nil {
		t.Fatal("chaos cluster built without the reliability layer")
	}
	without, rawCluster := run(false)
	if rawCluster.host(0).rel != nil {
		t.Fatal("plain cluster built the reliability layer anyway")
	}

	if withRel.Messages != without.Messages {
		t.Errorf("message totals diverge: %d with reliability, %d without", withRel.Messages, without.Messages)
	}
	if !reflect.DeepEqual(withRel.ByKind, without.ByKind) {
		t.Errorf("per-kind counts diverge:\n  with    %v\n  without %v", withRel.ByKind, without.ByKind)
	}
	for _, c := range []struct {
		name       string
		with, sans uint64
	}{
		{"requests", withRel.Requests, without.Requests},
		{"entries", withRel.Entries, without.Entries},
		{"exits", withRel.Exits, without.Exits},
	} {
		if c.with != c.sans {
			t.Errorf("%s diverge: %d with reliability, %d without", c.name, c.with, c.sans)
		}
	}
	// A fault-free in-process wire acks long before the backoff fires.
	if withRel.Transport.Retransmits != 0 {
		t.Errorf("%d retransmissions on a quiet lossless run", withRel.Transport.Retransmits)
	}
	if withRel.Transport.DupSuppressed != 0 {
		t.Errorf("%d duplicates suppressed on a quiet lossless run", withRel.Transport.DupSuppressed)
	}
	// The plain cluster must report no transport activity at all.
	if without.Transport != (obs.TransportStats{}) {
		t.Errorf("plain run reported transport stats %+v", without.Transport)
	}
}

// TestTCPReliableUnderDrops runs a two-peer TCP cluster whose writers drop
// every third sequenced frame before it reaches the wire: every
// Acquire/Release round must still complete well within its deadline,
// carried by retransmission.
func TestTCPReliableUnderDrops(t *testing.T) {
	const n = 2
	alg := core.Algorithm{Construction: coterie.Majority{}}
	sites, err := alg.NewSites(n)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make(map[mutex.SiteID]string, n)
	peers := make([]*TCPPeer, n)
	for i := 0; i < n; i++ {
		p, err := NewTCPPeerConfig(TCPConfig{Self: sites[i].ID(), Factory: defaultOnly(sites[i]), ListenAddr: "127.0.0.1:0", Peers: nil})
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
		addrs[mutex.SiteID(i)] = p.Addr()
	}
	for _, p := range peers {
		p.Close()
	}
	sites, err = alg.NewSites(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		book := make(map[mutex.SiteID]string, n-1)
		for j, a := range addrs {
			if int(j) != i {
				book[j] = a
			}
		}
		p, err := NewTCPPeerConfig(TCPConfig{Self: sites[i].ID(), Factory: defaultOnly(sites[i]), ListenAddr: addrs[mutex.SiteID(i)], Peers: book})
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
	}
	defer func() {
		for _, p := range peers {
			p.Close()
		}
	}()

	// Deterministic loss at the writer: every third sequenced frame a peer
	// tries to put on the wire vanishes. Retransmissions advance the counter
	// too, so a victim frame survives on a later attempt.
	var dropMu sync.Mutex
	var dropped int
	for _, p := range peers {
		var mu sync.Mutex
		var nth int
		p.setDropHook(func(env mutex.Envelope) bool {
			if env.Seq == 0 {
				return false
			}
			mu.Lock()
			defer mu.Unlock()
			nth++
			if nth%3 == 0 {
				dropMu.Lock()
				dropped++
				dropMu.Unlock()
				return true
			}
			return false
		})
	}

	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			node := peers[i].Node()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			err := node.Acquire(ctx)
			cancel()
			if err != nil {
				t.Fatalf("site %d round %d: acquire under drops: %v", i, round, err)
			}
			if err := node.Release(); err != nil {
				t.Fatalf("site %d round %d: release: %v", i, round, err)
			}
		}
	}
	// The layer did real work: frames were actually lost and healed.
	dropMu.Lock()
	defer dropMu.Unlock()
	if dropped == 0 {
		t.Fatal("drop hook never fired: the test exercised nothing")
	}
}
