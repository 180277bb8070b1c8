package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"dqmx"
	"dqmx/internal/core"
	"dqmx/internal/mutex"
	"dqmx/internal/obs"
	"dqmx/internal/transport"
	"dqmx/internal/wire"
)

// The probes time direct calls into one layer's exported functions, outside
// any deployment, so that a layer's own cost can be told from the cost of
// its neighbours. Each returns its metrics by name.

// probeCore pumps the workload's coterie of core sites through a zero-delay
// FIFO in one goroutine under the heavy pattern (every site asks again as
// soon as it exits). It also returns the messages the sites exchanged, the
// mix the wire probe encodes.
func probeCore(spec simSpec) (map[string]float64, []mutex.Envelope, error) {
	const targetCS = 20000
	const mixSize = 4096
	sites, err := core.Algorithm{Construction: spec.cons}.NewSites(spec.n)
	if err != nil {
		return nil, nil, fmt.Errorf("core probe: %w", err)
	}
	var (
		queue   []mutex.Envelope
		head    int
		entered []mutex.SiteID
		mix     []mutex.Envelope
		steps   int
		done    int
	)
	apply := func(s mutex.SiteID, out mutex.Output) {
		steps++
		queue = append(queue, out.Send...)
		if out.Entered {
			entered = append(entered, s)
		}
	}
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for _, s := range sites {
		apply(s.ID(), s.Request())
	}
	for done < targetCS {
		if n := len(entered); n > 0 {
			s := entered[n-1]
			entered = entered[:n-1]
			apply(s, sites[s].Exit())
			done++
			apply(s, sites[s].Request())
			continue
		}
		if head == len(queue) {
			return nil, nil, fmt.Errorf("core probe: the pump ran dry after %d CS", done)
		}
		env := queue[head]
		head++
		if head > 1<<16 { // drop the consumed prefix now and then
			queue = append(queue[:0], queue[head:]...)
			head = 0
		}
		if env.From != env.To && len(mix) < mixSize {
			mix = append(mix, env)
		}
		apply(env.To, sites[env.To].Deliver(env))
	}
	wall := time.Since(t0)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	return map[string]float64{
		"core.step_ns":       float64(wall.Nanoseconds()) / float64(steps),
		"core.cpu_us_per_cs": us(wall.Nanoseconds()) / float64(done),
		"core.allocs_per_cs": float64(m1.Mallocs-m0.Mallocs) / float64(done),
	}, mix, nil
}

// probeWire runs the binary codec's encoder and decoder over the message
// mix, stamped with the hot lock's name as the live transports stamp it.
func probeWire(mix []mutex.Envelope) (map[string]float64, error) {
	const rounds = 100
	if len(mix) == 0 {
		return nil, fmt.Errorf("wire probe: empty message mix")
	}
	for i := range mix {
		mix[i].Resource = lockName
	}
	codec := wire.Binary()
	var buf bytes.Buffer
	encodeRound := func() error {
		buf.Reset()
		enc := codec.NewEncoder(&buf)
		defer closeIfCloser(enc)
		for _, env := range mix {
			if err := enc.Encode(env); err != nil {
				return fmt.Errorf("wire probe: encode: %w", err)
			}
		}
		return nil
	}
	if err := encodeRound(); err != nil { // sizes buf, so the timed rounds do not grow it
		return nil, err
	}
	msgs := float64(rounds * len(mix))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		if err := encodeRound(); err != nil {
			return nil, err
		}
	}
	encode := time.Since(t0)
	encoded := append([]byte(nil), buf.Bytes()...)
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		dec := codec.NewDecoder(bytes.NewReader(encoded))
		for range mix {
			if _, err := dec.Decode(); err != nil {
				return nil, fmt.Errorf("wire probe: decode: %w", err)
			}
		}
		closeIfCloser(dec)
	}
	decode := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return map[string]float64{
		"wire.encode_ns_per_msg": float64(encode.Nanoseconds()) / msgs,
		"wire.decode_ns_per_msg": float64(decode.Nanoseconds()) / msgs,
		"wire.bytes_per_msg":     float64(len(encoded)) / float64(len(mix)),
		// One message encoded once and decoded once.
		"wire.allocs_per_msg": float64(m1.Mallocs-m0.Mallocs) / msgs,
	}, nil
}

func closeIfCloser(v any) {
	if c, ok := v.(io.Closer); ok {
		_ = c.Close() // returns pooled scratch; the codecs' Close cannot fail
	}
}

// pingMsg is the echo probe's own message, with its own wire tag, so the
// transport is timed carrying one small message and no protocol.
type pingMsg struct {
	Seq  uint64
	Pong bool
}

func (pingMsg) Kind() string { return "bench-ping" }

// tagPing is far above every tag the protocol packages register.
const tagPing byte = 200

func init() {
	wire.RegisterMessage(tagPing, pingMsg{},
		func(b []byte, m mutex.Message) []byte {
			p := m.(pingMsg)
			return wire.AppendBool(wire.AppendUint(b, p.Seq), p.Pong)
		},
		func(r *wire.Reader) (mutex.Message, error) {
			p := pingMsg{Seq: r.Uint(), Pong: r.Bool()}
			return p, r.Err()
		})
}

// echoSite is a two-site mutex.Site with no protocol: Request sends burst
// pings to the peer, the peer answers each with a pong, and the last pong
// enters the CS. Acquire on it therefore takes one transport round trip.
type echoSite struct {
	id, peer mutex.SiteID
	burst    int
	awaited  int
	inCS     bool
	seq      uint64
}

func (s *echoSite) ID() mutex.SiteID { return s.id }
func (s *echoSite) InCS() bool       { return s.inCS }
func (s *echoSite) Pending() bool    { return s.awaited > 0 }

func (s *echoSite) Request() mutex.Output {
	var out mutex.Output
	s.awaited = s.burst
	for i := 0; i < s.burst; i++ {
		s.seq++
		out.SendTo(s.id, s.peer, pingMsg{Seq: s.seq})
	}
	return out
}

func (s *echoSite) Exit() mutex.Output {
	s.inCS = false
	return mutex.Output{}
}

func (s *echoSite) Deliver(env mutex.Envelope) mutex.Output {
	var out mutex.Output
	p, ok := env.Msg.(pingMsg)
	switch {
	case !ok:
	case !p.Pong:
		out.SendTo(s.id, env.From, pingMsg{Seq: p.Seq, Pong: true})
	case s.awaited > 0:
		if s.awaited--; s.awaited == 0 {
			s.inCS, out.Entered = true, true
		}
	}
	return out
}

// echoAlgorithm builds the two echo sites for the in-process cluster.
type echoAlgorithm struct{ burst int }

func (echoAlgorithm) Name() string { return "bench-echo" }

func (a echoAlgorithm) NewSites(n int) ([]mutex.Site, error) {
	if n != 2 {
		return nil, fmt.Errorf("echo probe: needs 2 sites, got %d", n)
	}
	return []mutex.Site{
		&echoSite{id: 0, peer: 1, burst: a.burst},
		&echoSite{id: 1, peer: 0, burst: a.burst},
	}, nil
}

// locker is what the probes time: a transport node and a lock handle both
// block in Acquire until granted.
type locker interface {
	Acquire(ctx context.Context) error
	Release() error
}

// acquireTimes times n uncontended Acquire calls, each followed by a
// Release, after n/10 untimed ones that warm connections up.
func acquireTimes(l locker, n int) ([]int64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out := make([]int64, 0, n)
	for i := 0; i < n+n/10; i++ {
		t0 := now()
		if err := l.Acquire(ctx); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		t1 := now()
		if err := l.Release(); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		if i >= n/10 {
			out = append(out, t1-t0)
		}
	}
	return out, nil
}

// probeInprocTransport times one message round trip through the in-process
// fabric: node loop, reliable sublayer, mailbox and the goroutine wake-ups.
func probeInprocTransport() (map[string]float64, error) {
	c, err := transport.NewClusterConfig(transport.ClusterConfig{Algorithm: echoAlgorithm{burst: 1}, N: 2})
	if err != nil {
		return nil, fmt.Errorf("echo probe: %w", err)
	}
	defer c.Close()
	rtts, err := acquireTimes(c.Node(0), 20000)
	if err != nil {
		return nil, err
	}
	return map[string]float64{"transport.inproc_rtt_p50_us": us(percentile(rtts, 50))}, nil
}

// echoPeers starts the two echo sites as TCP peers on loopback.
func echoPeers(burst int) (a, b *transport.TCPPeer, err error) {
	addrs, err := reserveAddrs(2)
	if err != nil {
		return nil, nil, err
	}
	peers := make([]*transport.TCPPeer, 2)
	for i := range peers {
		self, other := mutex.SiteID(i), mutex.SiteID(1-i)
		peers[i], err = transport.NewTCPPeerConfig(transport.TCPConfig{
			Self: self,
			Factory: func(string) (mutex.Site, error) {
				return &echoSite{id: self, peer: other, burst: burst}, nil
			},
			ListenAddr: addrs[i],
			Peers:      map[mutex.SiteID]string{other: addrs[1-i]},
			N:          2,
		})
		if err != nil {
			if i == 1 {
				peers[0].Close()
			}
			return nil, nil, fmt.Errorf("echo probe: %w", err)
		}
	}
	return peers[0], peers[1], nil
}

// probeTCPTransport times the same round trip over loopback sockets — wire
// codec, reliable sublayer, per-destination writer, kernel — and then the
// message rate with 64 pings in flight.
func probeTCPTransport() (map[string]float64, error) {
	a, b, err := echoPeers(1)
	if err != nil {
		return nil, err
	}
	rtts, err := acquireTimes(a.Node(), 10000)
	a.Close()
	b.Close()
	if err != nil {
		return nil, err
	}
	const burst = 64
	a, b, err = echoPeers(burst)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	defer b.Close()
	bursts, err := acquireTimes(a.Node(), 1000)
	if err != nil {
		return nil, err
	}
	var total int64
	for _, d := range bursts {
		total += d
	}
	p := percentiles(rtts, 50, 99)
	return map[string]float64{
		"transport.tcp_rtt_p50_us": us(p[0]),
		"transport.tcp_rtt_p99_us": us(p[1]),
		// Each burst carries 64 pings out and 64 pongs back.
		"transport.tcp_msgs_per_s": float64(2*burst*len(bursts)) / (float64(total) / 1e9),
	}, nil
}

// probeResource times the warm name → handle lookup over 64 lock names.
func probeResource() (map[string]float64, error) {
	c, err := dqmx.NewClusterWith(9, liveOptions(dqmx.GridQuorums, dqmx.ObserveConfig{}))
	if err != nil {
		return nil, fmt.Errorf("resource probe: %w", err)
	}
	defer c.Close()
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("lock-%02d", i)
		if _, err := c.Lock(names[i]); err != nil {
			return nil, fmt.Errorf("resource probe: %w", err)
		}
	}
	const lookups = 1 << 20
	t0 := time.Now()
	for i := 0; i < lookups; i++ {
		if _, err := c.Lock(names[i%len(names)]); err != nil {
			return nil, fmt.Errorf("resource probe: %w", err)
		}
	}
	return map[string]float64{"resource.lookup_ns": float64(time.Since(t0).Nanoseconds()) / lookups}, nil
}

// probeSession prices the client → arbiter hop: an uncontended acquire
// through a session, minus the same acquire through that arbiter's own
// handle.
func probeSession() (map[string]float64, error) {
	d, err := deployService([]int{0}, dqmx.ObserveConfig{})
	if err != nil {
		return nil, fmt.Errorf("session probe: %w", err)
	}
	defer d.close()
	const n = 4000
	through, err := acquireTimes(d.locks[0], n)
	if err != nil {
		return nil, err
	}
	direct, err := acquireTimes(d.arbiterLock, n)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"session.rtt_p50_us": us(percentile(through, 50) - percentile(direct, 50)),
	}, nil
}

// probeObs times the metrics collector folding one send event.
func probeObs() map[string]float64 {
	const events = 1 << 21
	m := obs.NewMetrics()
	e := obs.Event{Type: obs.EventSend, Site: 0, Peer: 1, Kind: mutex.KindRequest, Resource: lockName}
	t0 := time.Now()
	for i := 0; i < events; i++ {
		m.Observe(e)
	}
	return map[string]float64{"obs.observe_ns": float64(time.Since(t0).Nanoseconds()) / events}
}

// probeCoterie times building the workload's quorum assignment.
func probeCoterie(spec simSpec) (map[string]float64, error) {
	const rounds = 200
	times := make([]int64, rounds)
	for i := range times {
		t0 := now()
		if _, err := spec.cons.Assign(spec.n); err != nil {
			return nil, fmt.Errorf("coterie probe: %w", err)
		}
		times[i] = now() - t0
	}
	return map[string]float64{"coterie.assign_us": us(percentile(times, 50))}, nil
}

// runProbes runs the probes of the layers on the workload's path.
func runProbes(w workload) (map[string]float64, error) {
	out := map[string]float64{}
	add := func(m map[string]float64, err error) error {
		for k, v := range m {
			out[k] = v
		}
		return err
	}
	if w.has(layerCore) {
		m, mix, err := probeCore(w.spec)
		if err := add(m, err); err != nil {
			return nil, err
		}
		if w.has(layerWire) {
			if err := add(probeWire(mix)); err != nil {
				return nil, err
			}
		}
	}
	if w.has(layerTransport) {
		if err := add(probeInprocTransport()); err != nil {
			return nil, err
		}
		if w.tcp {
			if err := add(probeTCPTransport()); err != nil {
				return nil, err
			}
		}
	}
	if w.has(layerResource) {
		if err := add(probeResource()); err != nil {
			return nil, err
		}
	}
	if w.has(layerSession) {
		if err := add(probeSession()); err != nil {
			return nil, err
		}
	}
	if w.has(layerObs) {
		_ = add(probeObs(), nil)
	}
	if w.has(layerCoterie) {
		if err := add(probeCoterie(w.spec)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
