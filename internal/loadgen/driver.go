package loadgen

import (
	"context"
	"fmt"
	"net"
	"time"

	"dqmx"
	"dqmx/internal/obs"
)

// Driver names for Config.Driver.
const (
	// DriverInproc runs all N sites in this process over the in-process
	// fabric, optionally under a chaos plan.
	DriverInproc = "inproc"
	// DriverTCP runs all N sites in this process as real TCP peers over
	// loopback — the wire format, per-destination writers, the reliability
	// sublayer — with Config.HopDelay as the transport's link delay.
	DriverTCP = "tcp"
	// DriverService runs the lock-service tier: N arbiters (dqmx.Serve)
	// over loopback TCP plus Config.Clients leased sessions (dqmx.Dial)
	// spread across them. Workers operate through the sessions, so the
	// benchmark measures client-count scaling against a fixed coterie —
	// quorum traffic per CS must stay flat as Clients grows.
	DriverService = "service"
)

// driver abstracts the two fabrics behind the one operation the workers
// need: a site's handle for a named lock. Handles are canonical per
// (site, name), so the runner caches them up front and the hot path never
// touches the driver.
type driver interface {
	lock(site int, name string) (*dqmx.Lock, error)
	// reconfigure switches the live fabric to n sites via the joint-quorum
	// handover and returns the resulting epoch. Only the in-process driver
	// supports it; config validation rejects the others up front.
	reconfigure(ctx context.Context, n int) (epoch uint64, err error)
	close()
}

// newDriver boots the fabric for a validated config, wiring the given sink
// into every site's event stream. The sink receives one coherent stream in
// both cases: the TCP peers stamp their events with this process's one live
// clock (obs.Now), so their timestamps are comparable.
func newDriver(cfg Config, sink obs.Sink) (driver, error) {
	opts := dqmx.Options{
		Protocol: dqmx.Protocol(cfg.Protocol),
		Quorum:   dqmx.Quorum(cfg.Quorum),
		Observe:  dqmx.ObserveConfig{Observer: sink},
	}
	switch cfg.Driver {
	case DriverInproc:
		if cfg.Chaos != nil || cfg.HopDelay > 0 {
			plan := dqmx.ChaosPlan{Seed: cfg.Seed}
			if cfg.Chaos != nil {
				plan.Drop = cfg.Chaos.Drop
				plan.Duplicate = cfg.Chaos.Duplicate
				plan.Reorder = cfg.Chaos.Reorder
				plan.MinDelay = cfg.Chaos.MinDelay
				plan.MaxDelay = cfg.Chaos.MaxDelay
			}
			if cfg.HopDelay > 0 {
				plan.MinDelay = cfg.HopDelay
				plan.MaxDelay = cfg.HopDelay
			}
			opts.Faults.Chaos = &plan
		}
		c, err := dqmx.NewClusterWith(cfg.N, opts)
		if err != nil {
			return nil, err
		}
		return &inprocDriver{cluster: c}, nil
	case DriverTCP:
		opts.Wire.LinkDelay = cfg.HopDelay
		return newTCPDriver(cfg.N, opts)
	case DriverService:
		opts.Wire.LinkDelay = cfg.HopDelay
		return newServiceDriver(cfg, opts)
	}
	return nil, fmt.Errorf("loadgen: unknown driver %q", cfg.Driver)
}

// inprocDriver wraps the in-process cluster.
type inprocDriver struct {
	cluster *dqmx.Cluster
}

func (d *inprocDriver) lock(site int, name string) (*dqmx.Lock, error) {
	return d.cluster.LockOn(dqmx.SiteID(site), name)
}

func (d *inprocDriver) reconfigure(ctx context.Context, n int) (uint64, error) {
	if err := d.cluster.Reconfigure(ctx, dqmx.Membership{N: n}); err != nil {
		return 0, err
	}
	return d.cluster.Epoch(), nil
}

func (d *inprocDriver) close() { d.cluster.Close() }

// tcpDriver hosts all N sites as TCP peers on loopback. Addresses are
// reserved first with throwaway listeners so every peer can be born with
// the full address book; connections are then dialed lazily on first send.
type tcpDriver struct {
	peers []*dqmx.TCPPeer
}

func newTCPDriver(n int, opts dqmx.Options) (*tcpDriver, error) {
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				_ = l.Close()
			}
			return nil, fmt.Errorf("loadgen: reserve address: %w", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, l := range listeners {
		_ = l.Close()
	}
	d := &tcpDriver{peers: make([]*dqmx.TCPPeer, n)}
	for i := 0; i < n; i++ {
		book := make(map[dqmx.SiteID]string, n-1)
		for j, a := range addrs {
			if j != i {
				book[dqmx.SiteID(j)] = a
			}
		}
		p, err := dqmx.NewTCPNode(n, dqmx.SiteID(i), addrs[i], book, opts)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("loadgen: start peer %d: %w", i, err)
		}
		d.peers[i] = p
	}
	return d, nil
}

func (d *tcpDriver) lock(site int, name string) (*dqmx.Lock, error) {
	if site < 0 || site >= len(d.peers) {
		return nil, fmt.Errorf("loadgen: site %d out of range", site)
	}
	return d.peers[site].Lock(name)
}

func (d *tcpDriver) reconfigure(ctx context.Context, n int) (uint64, error) {
	return 0, fmt.Errorf("loadgen: the TCP driver does not reconfigure itself (operator-driven; see dqmx.PlanHandover)")
}

func (d *tcpDriver) close() {
	for _, p := range d.peers {
		if p != nil {
			p.Close()
		}
	}
}

// serviceDriver hosts the lock-service tier on loopback: a fixed arbiter
// coterie plus one leased session per client index. Its lock index is a
// *client*, not a site — the whole point is that clients outnumber the
// coterie without growing the quorums.
type serviceDriver struct {
	srvs     []*dqmx.Server
	sessions []*dqmx.Session
}

func newServiceDriver(cfg Config, opts dqmx.Options) (*serviceDriver, error) {
	n := cfg.N
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				_ = l.Close()
			}
			return nil, fmt.Errorf("loadgen: reserve address: %w", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, l := range listeners {
		_ = l.Close()
	}
	d := &serviceDriver{srvs: make([]*dqmx.Server, n)}
	for i := 0; i < n; i++ {
		book := make(map[dqmx.SiteID]string, n-1)
		for j, a := range addrs {
			if j != i {
				book[dqmx.SiteID(j)] = a
			}
		}
		srv, err := dqmx.Serve(dqmx.ServeConfig{
			N:            n,
			ID:           dqmx.SiteID(i),
			PeerListen:   addrs[i],
			Peers:        book,
			ClientListen: "127.0.0.1:0",
			Lease:        cfg.Lease,
			Options:      opts,
		})
		if err != nil {
			d.close()
			return nil, fmt.Errorf("loadgen: start arbiter %d: %w", i, err)
		}
		d.srvs[i] = srv
	}
	clientAddrs := make([]string, n)
	for i, srv := range d.srvs {
		clientAddrs[i] = srv.ClientAddr()
	}
	d.sessions = make([]*dqmx.Session, cfg.Clients)
	for i := range d.sessions {
		// Spread sessions over the arbiters; each keeps the full list as
		// its failover chain.
		rot := append(append([]string{}, clientAddrs[i%n:]...), clientAddrs[:i%n]...)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		sess, err := dqmx.Dial(ctx, rot, dqmx.DialConfig{Lease: cfg.Lease})
		cancel()
		if err != nil {
			d.close()
			return nil, fmt.Errorf("loadgen: dial client %d: %w", i, err)
		}
		d.sessions[i] = sess
	}
	return d, nil
}

func (d *serviceDriver) lock(client int, name string) (*dqmx.Lock, error) {
	if client < 0 || client >= len(d.sessions) {
		return nil, fmt.Errorf("loadgen: client %d out of range", client)
	}
	return d.sessions[client].Lock(name)
}

func (d *serviceDriver) reconfigure(ctx context.Context, n int) (uint64, error) {
	return 0, fmt.Errorf("loadgen: the service driver does not reconfigure its coterie")
}

func (d *serviceDriver) close() {
	for _, s := range d.sessions {
		if s != nil {
			_ = s.Close()
		}
	}
	for _, srv := range d.srvs {
		if srv != nil {
			srv.Close()
		}
	}
}
