//go:build !race

package transport

import (
	"bufio"
	"context"
	"net"
	"testing"
	"time"

	"dqmx/internal/clock"
	"dqmx/internal/core"
	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
	"dqmx/internal/wire"
)

// Allocation budgets for the site loop and what sits below it, pinned at the
// figures this layer reached when its buffers became reusable (ISSUE 14) and
// the protocol messages moved into their envelopes (ISSUE 15).
// testing.AllocsPerRun counts every goroutine's allocations, which is the
// point: one Acquire is the work of a whole quorum of site loops. Not under
// -race: the detector allocates on its own account.

// TestAllocsMailboxCycle: a put/drain cycle reuses the two slices the
// site's mailbox and its loop double-buffer between them.
func TestAllocsMailboxCycle(t *testing.T) {
	m := &mailbox{notify: make(chan struct{}, 1)}
	var msg mutex.Message = mutex.FailureMsg{Failed: 1}
	it := item{env: mutex.Envelope{From: 1, To: 2, Msg: msg}}
	var batch []item
	cycle := func() {
		for i := 0; i < 8; i++ {
			m.put(it)
		}
		<-m.notify
		batch, _ = m.drain(batch)
		if len(batch) != 8 {
			t.Fatalf("drained %d envelopes, want 8", len(batch))
		}
	}
	cycle()
	cycle() // both buffers have now grown to the batch size
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("mailbox put/drain cycle: %.0f allocs, want 0", got)
	}
}

// TestAllocsUncontendedAcquireRelease: one uncontended Acquire+Release of a
// named lock on the 9-site in-process grid — 12 protocol messages through
// five site loops and their mailboxes. The messages travel inside their
// envelopes; the reply channels, envelope queues, per-request maps and the
// sender's per-destination regrouping all reuse their memory.
func TestAllocsUncontendedAcquireRelease(t *testing.T) {
	c, err := NewClusterConfig(ClusterConfig{Algorithm: core.Algorithm{}, N: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l, err := c.Lock(0, "hot")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cycle := func() {
		if err := l.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
		if err := l.Release(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		cycle()
	}
	got := testing.AllocsPerRun(500, cycle)
	t.Logf("%.0f allocs per uncontended Acquire+Release (N=9 grid)", got)
	const budget = 1
	if got > budget {
		t.Errorf("uncontended Acquire+Release: %.0f allocs, budget %d", got, budget)
	}
}

// discardSender is the wire below a reliable layer under test.
type discardSender struct{ sent int }

func (d *discardSender) Send(mutex.Envelope) error { d.sent++; return nil }

func (d *discardSender) SendBatch(envs []mutex.Envelope) error { d.sent += len(envs); return nil }

// TestAllocsReliableFlush: a flush pass with retransmissions and standalone
// acks due, and no sink to tell about them, reuses the layer's own buffers.
func TestAllocsReliableFlush(t *testing.T) {
	wire := &discardSender{}
	// No site loop: the test steps the layer, and calls flush, itself.
	r := newReliable(wire, func(mutex.Envelope) {}, func() {}, nil, clock.Real)
	for to := mutex.SiteID(1); to <= 4; to++ {
		if err := r.Send(mutex.Envelope{From: 0, To: to, Body: mutex.Body{Kind: mutex.BodyYield}}); err != nil {
			t.Fatal(err)
		}
		// The ack is owed to a peer nothing is being retransmitted to, or the
		// retransmission would carry it.
		r.Receive(mutex.Envelope{From: to + 4, To: 0, Seq: 1, Body: mutex.Body{Kind: mutex.BodyYield}})
	}
	pass := func() {
		for _, ss := range r.out {
			ss.unacked[0].due = time.Time{}
		}
		for _, rs := range r.in {
			rs.ackDue, rs.ackAt = true, time.Time{}
		}
		before := wire.sent
		r.flush()
		if wire.sent-before != 8 {
			t.Fatalf("flush sent %d envelopes, want 4 retransmissions + 4 acks", wire.sent-before)
		}
	}
	pass() // the buffers reach their size
	if got := testing.AllocsPerRun(100, pass); got != 0 {
		t.Errorf("flush pass: %.0f allocs, want 0", got)
	}
}

// TestAllocsTCPSend: a steady-state TCPPeer.Send costs nothing — the item
// queued on the site's loop, and the loop's step of it: the reliable
// sublayer, the destination's write role taken on the loop, one encode into
// the reused batch buffer and one non-blocking write onto a loopback socket.
// Each measured send waits for the loop to finish its step, so the loop's
// work falls inside the measured window.
func TestAllocsTCPSend(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if wire.Accept(conn, wire.MagicPeer, 5*time.Second) != nil {
			return
		}
		buf := make([]byte, 64<<10)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	src, err := NewTCPPeerConfig(TCPConfig{
		Self:       0,
		Factory:    func(string) (mutex.Site, error) { return benchSite{id: 0}, nil },
		ListenAddr: "127.0.0.1:0",
		Peers:      map[mutex.SiteID]string{1: ln.Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		src.Close()
		<-done
	}()
	env := mutex.Envelope{From: 0, To: 1, Msg: heartbeatMsg{From: 0}}
	noop := func() {}
	send := func() {
		if err := src.Send(env); err != nil {
			t.Fatal(err)
		}
		if err := src.host.onLoop(noop); err != nil {
			t.Fatal(err)
		}
	}
	// The first sends dial on a goroutine of their own; wait until it has
	// handed the connection over and exited.
	for i := 0; i < 200; i++ {
		send()
	}
	o, err := src.outboundFor(1)
	if err != nil {
		t.Fatal(err)
	}
	waitWriteRole(t, o)
	if got := testing.AllocsPerRun(1000, send); got != 0 {
		t.Errorf("steady-state TCP Send: %.0f allocs, want 0", got)
	}
}

// TestAllocsWireToDeliver: a §3.1 message costs nothing between one site's
// step and the next one's — binary encode, a loopback TCP socket, binary
// decode, core's Deliver. All seven kinds cross: an arbiter's grant, queue,
// forwarded release and release, then the five kinds a requester receives,
// stale here and so dropped or declined. The next boxing of a protocol
// message anywhere on that path turns this red.
func TestAllocsWireToDeliver(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	bw := bufio.NewWriter(client)
	enc := wire.Binary().NewEncoder(bw)
	dec := wire.Binary().NewDecoder(bufio.NewReader(server))
	sites, err := core.Algorithm{}.NewSites(9)
	if err != nil {
		t.Fatal(err)
	}
	arbiter := sites[0]

	var seq uint64
	cycle := func() {
		seq += 2
		a := timestamp.Timestamp{Seq: seq, Site: 5}
		b := timestamp.Timestamp{Seq: seq + 1, Site: 6}
		msgs := [...]mutex.Envelope{
			{From: 5, Body: mutex.Body{Kind: mutex.BodyRequest, TS: a}},                       // granted
			{From: 6, Body: mutex.Body{Kind: mutex.BodyRequest, TS: b}},                       // queued: fail + transfer
			{From: 5, Body: mutex.Body{Kind: mutex.BodyRelease, Site: 6, TS: a, TS2: b}},      // forwarded
			{From: 6, Body: mutex.Body{Kind: mutex.BodyRelease, Site: timestamp.None, TS: b}}, // unlocked
			{From: 3, Body: mutex.Body{Kind: mutex.BodyReply, Flag: true, Site: 3, Site2: 3, TS: a, TS2: b}},
			{From: 3, Body: mutex.Body{Kind: mutex.BodyInquire, Site: 3, TS: a}},
			{From: 3, Body: mutex.Body{Kind: mutex.BodyFail, Site: 3, TS: a}},
			{From: 3, Body: mutex.Body{Kind: mutex.BodyYield, TS: a}},
			{From: 3, Body: mutex.Body{Kind: mutex.BodyTransfer, Flag: true, Site: 3, TS: a, TS2: b}},
		}
		for _, env := range msgs {
			env.Resource = "hot"
			if err := enc.Encode(env); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		for range msgs {
			env, err := dec.Decode()
			if err != nil {
				t.Fatal(err)
			}
			arbiter.Deliver(env)
		}
	}
	for i := 0; i < 50; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Errorf("encode → loopback → decode → Deliver of nine messages: %.0f allocs, want 0", got)
	}
}
