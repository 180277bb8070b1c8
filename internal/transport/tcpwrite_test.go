package transport

// Tests of the TCP write path: a destination that stops reading never blocks
// its sender or its neighbours, a broken connection's frames come back over
// the next one at once, locks stay exclusive and live while connections keep
// breaking, and a settled peer keeps no goroutine per destination.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dqmx/internal/core"
	"dqmx/internal/mutex"
	"dqmx/internal/resource"
	"dqmx/internal/wire"
)

// padMsg is a test-only transport payload. Like a heartbeat it travels
// unsequenced, so the test stamps Seq itself and nothing retransmits it; its
// padding lets a few thousand frames overrun the loopback socket buffers.
type padMsg struct{ Pad string }

func (padMsg) Kind() string      { return "pad" }
func (padMsg) transportMessage() {}

// tagPad is free in every range the live stack claims (see internal/wire).
const tagPad byte = 12

func init() {
	wire.RegisterMessage(tagPad, padMsg{},
		func(b []byte, m mutex.Message) []byte { return wire.AppendString(b, m.(padMsg).Pad) },
		func(r *wire.Reader) (mutex.Message, error) { return padMsg{Pad: r.String()}, nil })
}

// fakePeer listens for one peer connection, answers its handshake, and
// hands the stream's decoder to read. It returns the listen address.
func fakePeer(t *testing.T, read func(dec *wire.Decoder)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// A small receive window: what the reader leaves unread backs up
		// into the sender's socket buffer sooner.
		_ = conn.(*net.TCPConn).SetReadBuffer(16 << 10)
		if err := wire.Accept(conn, wire.MagicPeer, 5*time.Second); err != nil {
			t.Error(err)
			return
		}
		dec := wire.Binary().NewDecoder(conn)
		defer dec.Close()
		read(dec)
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		<-done
	})
	return ln.Addr().String()
}

// waitWriteRole waits until nobody holds the destination's write role and
// nothing is queued for it.
func waitWriteRole(tb testing.TB, o *outbound) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		o.mu.Lock()
		busy := o.writing || len(o.queue.b) > 0
		o.mu.Unlock()
		if !busy {
			return
		}
		if time.Now().After(deadline) {
			tb.Fatal("the write role was never released")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestStalledDestinationNeverBlocksSender floods a destination that has
// stopped reading with 8 MB of frames, far past what the loopback socket
// buffers hold. Every Send and SendBatch must return at once, traffic to a
// healthy second destination must keep arriving, and once the stalled
// reader resumes it must decode every frame exactly once, in Seq order.
func TestStalledDestinationNeverBlocksSender(t *testing.T) {
	const (
		padBytes   = 4 << 10
		frames     = 2048 // 8 MB of padding
		batch      = 8
		healthyGap = 16 // one frame to the healthy peer per this many batches
		healthy    = frames / batch / healthyGap
		maxCall    = 100 * time.Millisecond
	)
	type result struct {
		n   uint64
		err error
	}
	resume := make(chan struct{})
	stalledDone := make(chan result, 1)
	stalledAddr := fakePeer(t, func(dec *wire.Decoder) {
		<-resume
		var want uint64
		for want < frames {
			env, err := dec.Decode()
			if err != nil {
				stalledDone <- result{want, err}
				return
			}
			if want++; env.Seq != want {
				stalledDone <- result{want - 1, fmt.Errorf("frame %d carries Seq %d", want, env.Seq)}
				return
			}
		}
		stalledDone <- result{want, nil}
	})
	healthySeqs := make(chan uint64, healthy)
	healthyAddr := fakePeer(t, func(dec *wire.Decoder) {
		for {
			env, err := dec.Decode()
			if err != nil {
				return
			}
			healthySeqs <- env.Seq
		}
	})
	var resumeOnce sync.Once
	resumeNow := func() { resumeOnce.Do(func() { close(resume) }) }
	t.Cleanup(resumeNow) // runs before the fakes' cleanups
	// A sender that blocks would hang the flood for good; the watchdog
	// resumes the reader so such a sender fails on its call times instead.
	watchdog := time.AfterFunc(15*time.Second, resumeNow)
	defer watchdog.Stop()

	src, err := NewTCPPeerConfig(TCPConfig{
		Self:       0,
		Factory:    func(string) (mutex.Site, error) { return benchSite{id: 0}, nil },
		ListenAddr: "127.0.0.1:0",
		Peers:      map[mutex.SiteID]string{1: stalledAddr, 2: healthyAddr},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	var msg mutex.Message = padMsg{Pad: strings.Repeat("x", padBytes)}
	var slowest time.Duration
	timed := func(call func() error) {
		start := time.Now()
		err := call()
		slowest = max(slowest, time.Since(start))
		if err != nil {
			t.Fatal(err)
		}
	}
	// The first batch to each destination dials on a goroutine; the flood
	// proper starts once both connections are up and the roles are free, so
	// it runs the path a sender takes on a live link.
	o, err := src.outboundFor(1)
	if err != nil {
		t.Fatal(err)
	}
	envs := make([]mutex.Envelope, batch)
	var seq, sentHealthy uint64
	for i := 0; i < frames/batch; i++ {
		if i == 1 {
			healthyOut, err := src.outboundFor(2)
			if err != nil {
				t.Fatal(err)
			}
			waitWriteRole(t, o)
			waitWriteRole(t, healthyOut)
		}
		for j := range envs {
			seq++
			envs[j] = mutex.Envelope{From: 0, To: 1, Seq: seq, Msg: msg}
		}
		timed(func() error { return src.SendBatch(envs) })
		if i%healthyGap == 0 {
			sentHealthy++
			timed(func() error {
				return src.Send(mutex.Envelope{From: 0, To: 2, Seq: sentHealthy, Msg: msg})
			})
		}
	}
	if slowest > maxCall {
		t.Errorf("slowest Send/SendBatch took %v, want under %v", slowest, maxCall)
	}
	o.mu.Lock()
	stalled := o.writing
	o.mu.Unlock()
	if !stalled {
		t.Fatal("the flood fit in the socket buffers: the stall never happened")
	}

	for want := uint64(1); want <= sentHealthy; want++ {
		select {
		case got := <-healthySeqs:
			if got != want {
				t.Fatalf("healthy peer: frame %d carries Seq %d", want, got)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("healthy peer: %d of %d frames arrived behind the stalled one", want-1, sentHealthy)
		}
	}

	resumeNow()
	select {
	case r := <-stalledDone:
		if r.err != nil {
			t.Fatalf("stalled peer after %d frames: %v", r.n, r.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stalled peer: the backlog never drained")
	}
	waitWriteRole(t, o)
}

// TestConcurrentSendersKeepOrder has several goroutines send to one
// destination at once, so the write role keeps changing hands between them:
// the destination must receive each sender's frames once and in its order.
// Close then lands while they are still sending, and must return.
func TestConcurrentSendersKeepOrder(t *testing.T) {
	const senders, each = 4, 2000
	checked := make(chan error, 1)
	addr := fakePeer(t, func(dec *wire.Decoder) {
		var next [senders]uint64
		for got := 0; got < senders*each; got++ {
			env, err := dec.Decode()
			if err != nil {
				checked <- err
				return
			}
			s := env.From
			if next[s]++; env.Seq != next[s] {
				checked <- fmt.Errorf("sender %d: frame %d carries Seq %d", s, next[s], env.Seq)
				return
			}
		}
		checked <- nil
		for {
			if _, err := dec.Decode(); err != nil {
				return
			}
		}
	})
	src, err := NewTCPPeerConfig(TCPConfig{
		Self:       0,
		Factory:    func(string) (mutex.Site, error) { return benchSite{id: 0}, nil },
		ListenAddr: "127.0.0.1:0",
		Peers:      map[mutex.SiteID]string{1: addr},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var msg mutex.Message = padMsg{Pad: "x"}
	send := func(s mutex.SiteID, seq uint64) error {
		env := mutex.Envelope{From: s, To: 1, Seq: seq, Msg: msg}
		if seq%2 == 0 {
			return src.SendBatch([]mutex.Envelope{env})
		}
		return src.Send(env)
	}

	var wg sync.WaitGroup
	for s := mutex.SiteID(0); s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(1); seq <= each; seq++ {
				if err := send(s, seq); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-checked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the destination never received every frame")
	}

	stop := make(chan struct{})
	var sent sync.WaitGroup
	sent.Add(senders)
	for s := mutex.SiteID(0); s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(1); ; seq++ {
				if seq == 100 {
					sent.Done()
				}
				select {
				case <-stop:
					return
				default:
				}
				_ = send(s, seq) // fails once the peer is closed
			}
		}()
	}
	sent.Wait()
	src.Close()
	close(stop)
	wg.Wait()
}

// TestTCPBrokenConnectionResendsAtOnce: a destination accepts a connection,
// reads nothing and closes it once k sequenced frames were written to it, so
// they die unread in its socket. The sender finds the break on its next
// write, and the redialled connection must carry sequence numbers 1..k+m —
// the lost k with the m sent after the break — each delivered once and in
// order after dedup. The manual clock never passes 0.75·rtxBase, the
// earliest a timed retransmission is due: the lost frames come back because
// the connection broke, not because their timer fired.
func TestTCPBrokenConnectionResendsAtOnce(t *testing.T) {
	const k, m = 6, 6
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Room for the first connection and the redialled one, and one more: a
	// connection nobody takes is closed rather than blocking the acceptor.
	conns := make(chan net.Conn, 3)
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if wire.Accept(conn, wire.MagicPeer, 5*time.Second) != nil {
				_ = conn.Close()
				continue
			}
			select {
			case conns <- conn:
			default:
				_ = conn.Close()
			}
		}
	}()
	defer func() {
		_ = ln.Close()
		<-accepted
		close(conns)
		for conn := range conns {
			_ = conn.Close()
		}
	}()
	clk := newManualClock()
	src, err := NewTCPPeerConfig(TCPConfig{
		Self:       0,
		Factory:    func(string) (mutex.Site, error) { return benchSite{id: 0}, nil },
		ListenAddr: "127.0.0.1:0",
		Peers:      map[mutex.SiteID]string{1: ln.Addr().String()},
		clock:      clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	clk.awaitReaders(1) // the sublayer's flush loop
	o, err := src.outboundFor(1)
	if err != nil {
		t.Fatal(err)
	}
	send := func() {
		t.Helper()
		if err := src.Send(mutex.Envelope{From: 0, To: 1, Body: mutex.Body{Kind: mutex.BodyYield}}); err != nil {
			t.Fatal(err)
		}
		waitWriteRole(t, o) // written, or found the break
	}
	for i := 0; i < k; i++ {
		send()
	}
	first := receive(t, conns)
	_ = first.Close() // unread bytes: the close resets the connection
	for i := 0; i < m; i++ {
		send()
	}

	second := receive(t, conns)
	// Room for every copy the redialled connection can carry: each frame
	// once, plus a re-sent copy of each.
	got := make(chan uint64, 2*(k+m))
	stop := make(chan struct{})
	defer close(stop)
	defer second.Close()
	go func() {
		dec := wire.Binary().NewDecoder(second)
		defer dec.Close()
		for {
			env, err := dec.Decode()
			if err != nil {
				close(got)
				return
			}
			select {
			case got <- env.Seq:
			case <-stop:
				return
			}
		}
	}()
	var delivered uint64
	held := map[uint64]bool{}
	var dups int
	for step := time.Duration(0); delivered < k+m; step += relTick {
		if step+relTick > rtxBase*3/4 {
			t.Fatalf("the redialled connection delivered 1..%d of 1..%d before the clock reached 0.75·rtxBase", delivered, k+m)
		}
		clk.Advance(relTick)
		for wait := time.After(200 * time.Millisecond); delivered < k+m; {
			var seq uint64
			var ok bool
			select {
			case seq, ok = <-got:
			case <-wait:
			}
			if !ok {
				break
			}
			if seq <= delivered || held[seq] {
				dups++
				continue
			}
			held[seq] = true
			for held[delivered+1] {
				delete(held, delivered+1)
				delivered++
			}
		}
	}
	t.Logf("1..%d delivered over the redialled connection, %d duplicates dropped", delivered, dups)
}

// receive takes the next connection the fake destination accepted.
func receive(t *testing.T, conns <-chan net.Conn) net.Conn {
	t.Helper()
	select {
	case conn := <-conns:
		return conn
	case <-time.After(10 * time.Second):
		t.Fatal("the sender never (re)dialled")
		return nil
	}
}

// TestTCPGoroutinesPerPeer pins what a settled TCP peer runs: its accept
// loop, one read loop per inbound connection, the reliable sublayer's loop
// and one node loop per resource in use — and nothing per destination. A
// 9-site grid runs one acquire round per site and settles.
func TestTCPGoroutinesPerPeer(t *testing.T) {
	const n = 9
	base := runtime.NumGoroutine()
	sites, err := core.Algorithm{}.NewSites(n)
	if err != nil {
		t.Fatal(err)
	}
	peers := make([]*TCPPeer, n)
	for i := range peers {
		site := sites[i]
		p, err := NewTCPPeerConfig(TCPConfig{
			Self: site.ID(),
			Factory: func(name string) (mutex.Site, error) {
				if name != resource.Default {
					return nil, fmt.Errorf("named lock %q", name)
				}
				return site, nil
			},
			ListenAddr: "127.0.0.1:0",
			N:          n,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		peers[i] = p
	}
	for i, p := range peers {
		for j, q := range peers {
			if i != j {
				p.AddPeer(mutex.SiteID(j), q.Addr())
			}
		}
	}
	for i, p := range peers {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := p.Node().Acquire(ctx)
		cancel()
		if err != nil {
			t.Fatalf("site %d: %v", i, err)
		}
		if err := p.Node().Release(); err != nil {
			t.Fatalf("site %d: %v", i, err)
		}
	}

	budget := func() (total, outs int) {
		for _, p := range peers {
			p.mu.Lock()
			total += 1 + len(p.inbound) + 1 // accept loop, read loops, reliable loop
			outs += len(p.outs)
			p.mu.Unlock()
			total += len(p.Resources()) // node loops
		}
		return total, outs
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		want, outs := budget()
		got := runtime.NumGoroutine() - base
		if got <= want {
			t.Logf("%d goroutines for %d peers with %d destinations in use (budget %d)", got, n, outs, want)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines above the baseline after settling, want at most %d "+
				"(no goroutine per destination; %d destinations in use)", got, want, outs)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPConnectionChurn runs a 5-site grid over TCP in which every site
// saturates one lock for about 2 s, while a seeded goroutine closes a random
// inbound connection every few milliseconds. Frames die unread in the closed
// sockets and senders keep redialling; every Acquire must still complete
// within its deadline, and the critical section must never hold two sites.
func TestTCPConnectionChurn(t *testing.T) {
	const (
		n        = 5
		run      = 2 * time.Second
		deadline = 10 * time.Second
		seed     = 35
	)
	sites, err := core.Algorithm{}.NewSites(n)
	if err != nil {
		t.Fatal(err)
	}
	peers := make([]*TCPPeer, n)
	for i := range peers {
		site := sites[i]
		p, err := NewTCPPeerConfig(TCPConfig{
			Self: site.ID(),
			Factory: func(name string) (mutex.Site, error) {
				if name != resource.Default {
					return nil, fmt.Errorf("named lock %q", name)
				}
				return site, nil
			},
			ListenAddr: "127.0.0.1:0",
			N:          n,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		peers[i] = p
	}
	for i, p := range peers {
		for j, q := range peers {
			if i != j {
				p.AddPeer(mutex.SiteID(j), q.Addr())
			}
		}
	}

	stop := make(chan struct{})
	var closed int
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		rng := rand.New(rand.NewPCG(seed, seed))
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Duration(1+rng.IntN(5)) * time.Millisecond):
			}
			p := peers[rng.IntN(n)]
			p.mu.Lock()
			conns := make([]net.Conn, 0, len(p.inbound))
			for conn := range p.inbound {
				conns = append(conns, conn)
			}
			p.mu.Unlock()
			if len(conns) == 0 {
				continue
			}
			slices.SortFunc(conns, func(a, b net.Conn) int {
				return strings.Compare(a.RemoteAddr().String(), b.RemoteAddr().String())
			})
			_ = conns[rng.IntN(len(conns))].Close()
			closed++
		}
	}()

	var inCS atomic.Int32
	var entries atomic.Int64
	errs := make(chan error, n)
	end := time.Now().Add(run)
	for i, p := range peers {
		go func() {
			for time.Now().Before(end) {
				ctx, cancel := context.WithTimeout(context.Background(), deadline)
				err := p.Node().Acquire(ctx)
				cancel()
				if err != nil {
					errs <- fmt.Errorf("site %d: acquire: %w", i, err)
					return
				}
				if c := inCS.Add(1); c != 1 {
					errs <- fmt.Errorf("site %d entered the critical section with %d inside", i, c)
					return
				}
				entries.Add(1)
				inCS.Add(-1)
				if err := p.Node().Release(); err != nil {
					errs <- fmt.Errorf("site %d: release: %w", i, err)
					return
				}
			}
			errs <- nil
		}()
	}
	for range peers {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	<-churned
	if closed == 0 {
		t.Fatal("no connection was closed: the test exercised nothing")
	}
	t.Logf("%d critical sections while %d inbound connections were closed", entries.Load(), closed)
}
