// Package dqmx is a delay-optimal quorum-based distributed mutual exclusion
// library, reproducing Cao, Singhal, Deng, Rishe & Sun, "A Delay-Optimal
// Quorum-Based Mutual Exclusion Scheme with Fault-Tolerance Capability"
// (ICDCS 1998).
//
// The core protocol locks a quorum of arbiter sites to enter the critical
// section, like Maekawa's algorithm, but a site exiting the critical section
// forwards each arbiter's permission directly to the next requester instead
// of routing it back through the arbiter. That cuts the synchronization
// delay — the time between one site's exit and the next site's entry — from
// 2T to the provable minimum of one message delay T, while the message cost
// stays between 3(K−1) and 6(K−1) per execution (K = quorum size: √N for
// grid quorums, as low as log N for tree quorums).
//
// # Quick start
//
//	cluster, err := dqmx.NewCluster(9)         // nine sites in one process
//	if err != nil { ... }
//	defer cluster.Close()
//
//	node := cluster.Node(3)                    // act as site 3
//	if err := node.Acquire(ctx); err != nil { ... }
//	// ... critical section ...
//	node.Release()
//
// Use Options to pick a quorum construction (grid, tree, HQC, grid-set,
// RST, majority) or one of the six baseline algorithms, and NewTCPNode to
// spread sites across processes or machines (the paper's protocol and
// Maekawa only: the other baselines run in-process and simulated, not over
// a wire). The Simulate function runs the deterministic discrete-event
// simulator used to reproduce the paper's evaluation; the cmd/benchtab tool
// regenerates every table.
package dqmx

import (
	"errors"
	"fmt"

	"dqmx/internal/chaos"
	"dqmx/internal/core"
	"dqmx/internal/coterie"
	"dqmx/internal/harness"
	"dqmx/internal/mutex"
	"dqmx/internal/obs"
	"dqmx/internal/resource"
	"dqmx/internal/sim"
	"dqmx/internal/transport"
	"dqmx/internal/wire"
)

// SiteID identifies a site (0..N-1).
type SiteID = mutex.SiteID

// Node hosts one site and exposes blocking Acquire/Release. It is the
// legacy single-mutex interface: a thin shim over the default resource of
// the named-lock manager (Lock with the reserved empty name).
type Node = transport.Node

// TCPPeer hosts one site communicating over TCP.
type TCPPeer = transport.TCPPeer

// Lock is the handle for one named distributed lock: every resource name
// runs its own independent instance of the protocol over the same sites and
// the same transport. Obtain handles from Cluster.Lock or TCPPeer.Lock;
// prefer Do for acquire/run/release.
type Lock = resource.Lock

// Acquire/Release error conditions, re-exported for errors.Is checks at the
// public surface.
var (
	// ErrBusy means the site already holds or awaits the critical section
	// (sites execute their requests one by one).
	ErrBusy = transport.ErrBusy
	// ErrClosed means the node or cluster has shut down.
	ErrClosed = transport.ErrClosed
	// ErrNotHeld means Release was called without a held critical section.
	ErrNotHeld = transport.ErrNotHeld
)

// ChaosPlan is a seeded fault-injection schedule for in-process clusters:
// message drop, duplication, reordering, bounded delay, partitions, and
// site crashes, all derived deterministically from the plan's single seed.
// See Options.Faults.Chaos and the "Adversarial testing" section of the README.
type ChaosPlan = chaos.Plan

// ChaosPartition isolates a group of sites during a time window.
type ChaosPartition = chaos.Partition

// ChaosCrash schedules a site crash executed through the §6 failure path.
type ChaosCrash = chaos.Crash

// Quorum names a quorum construction.
type Quorum string

// Quorum constructions (§6 of the paper).
const (
	// GridQuorums are Maekawa grids: K ≈ 2√N−1, the default.
	GridQuorums Quorum = "grid"
	// TreeQuorums are Agrawal–El Abbadi tree paths: K as low as log N, with
	// graceful degradation under failures.
	TreeQuorums Quorum = "tree"
	// HQCQuorums use Hierarchical Quorum Consensus: K ≈ N^0.63.
	HQCQuorums Quorum = "hqc"
	// GridSetQuorums take a majority of groups with a grid inside each.
	GridSetQuorums Quorum = "grid-set"
	// RSTQuorums (Rangarajan–Setia–Tripathi) take grid-of-subgroups with a
	// majority inside each — failures inside a subgroup are masked without
	// reconstruction.
	RSTQuorums Quorum = "rst"
	// WallQuorums are crumbling walls (Peleg–Wool): one full row plus a
	// representative per lower row, K = O(√N), graceful degradation.
	WallQuorums Quorum = "wall"
	// MajorityQuorums need ⌊N/2⌋+1 sites: maximal resiliency, O(N) cost.
	MajorityQuorums Quorum = "majority"
	// FPPQuorums come from finite projective planes: the optimal
	// K ≈ √N quorum size, defined only for plane-order system sizes.
	FPPQuorums Quorum = "fpp"
	// SingletonQuorums route everything through site 0: a degenerate
	// central-coordinator coterie, useful as a baseline and in tests.
	SingletonQuorums Quorum = "singleton"
)

// Quorums enumerates every valid quorum construction name, in canonical
// order. Flag parsing and validation should use this instead of keeping a
// private copy of the list.
func Quorums() []Quorum {
	names := harness.QuorumNames()
	out := make([]Quorum, len(names))
	for i, n := range names {
		out[i] = Quorum(n)
	}
	return out
}

// Protocol names a mutual exclusion algorithm.
type Protocol string

// Available protocols: the paper's contribution plus the six baselines it
// compares against. All seven run under Simulate and NewClusterWith;
// NewTCPNode and Serve run DelayOptimal and Maekawa, the one machine with a
// wire codec, and refuse the other five.
const (
	// DelayOptimal is the paper's contribution (delay T).
	DelayOptimal Protocol = "delay-optimal"
	// Maekawa is the classic quorum algorithm (delay 2T): the DelayOptimal
	// machine with the exiting site's forwarding off, so every hand-off goes
	// through the arbiter. It shares §6 recovery and Reconfigure with it.
	Maekawa Protocol = "maekawa"
	// Lamport is the timestamp-broadcast algorithm: 3(N−1) messages.
	Lamport Protocol = "lamport"
	// RicartAgrawala merges releases into deferred replies: 2(N−1) messages.
	RicartAgrawala Protocol = "ricart-agrawala"
	// SinghalDynamic uses dynamic request/inform sets: N−1..2(N−1) messages.
	SinghalDynamic Protocol = "singhal-dynamic"
	// SuzukiKasami is the broadcast-token algorithm: 0..N messages.
	SuzukiKasami Protocol = "suzuki-kasami"
	// Raymond is the tree-token algorithm: O(log N) messages, long delay.
	Raymond Protocol = "raymond"
)

// Protocols enumerates every valid protocol name, the paper's contribution
// first. Flag parsing and validation should use this instead of keeping a
// private copy of the list.
func Protocols() []Protocol {
	names := harness.ProtocolNames()
	out := make([]Protocol, len(names))
	for i, n := range names {
		out[i] = Protocol(n)
	}
	return out
}

// TraceEvent is one structured protocol event: a request issued, a message
// sent (with its kind), a critical-section entry or exit, or failure
// handling. Timestamps are simulated ticks under Simulate and, on live
// clusters, TCP peers and Serve alike, monotonic nanoseconds since process
// start.
type TraceEvent = obs.Event

// EventType enumerates the protocol lifecycle events.
type EventType = obs.EventType

// Protocol event types delivered to an Observer.
const (
	EventRequest  = obs.EventRequest
	EventSend     = obs.EventSend
	EventEnter    = obs.EventEnter
	EventExit     = obs.EventExit
	EventFailure  = obs.EventFailure
	EventRecovery = obs.EventRecovery
)

// TraceSink receives the protocol event stream. Sinks run inline on the
// protocol hot path: they must be fast and must not block.
type TraceSink = obs.Sink

// MetricsSnapshot is a point-in-time copy of a cluster's aggregated
// metrics: per-kind message counters, messages per CS execution, and delay
// distributions (synchronization delay, response time, waiting time) in the
// driver's time unit.
type MetricsSnapshot = obs.Snapshot

// DelayStats summarizes one delay distribution (count, mean, min/max, and
// log-bucket p50/p99).
type DelayStats = obs.DelayStats

// Codec names the wire format of TCP deployments. One format exists, so the
// type selects nothing: it and the Codec fields of WireConfig and DialConfig
// are what remains of a codec-selection seam, kept spelled for callers that
// still assign BinaryCodec. Any other non-empty name is an error.
type Codec string

// BinaryCodec is wire format v1, the one format: a hand-rolled
// zero-allocation binary framing with varint fields and per-connection
// resource-name interning. See PROTOCOL.md, "Wire format v1".
const BinaryCodec Codec = "binary"

// validate accepts the empty name and BinaryCodec.
func (c Codec) validate() error {
	switch c {
	case "", BinaryCodec:
		return nil
	case "gob":
		return fmt.Errorf("dqmx: codec %q: %w", c, wire.ErrV0Retired)
	}
	return fmt.Errorf("dqmx: unknown codec %q (valid: %s)", c, BinaryCodec)
}

// WireConfig consolidates the byte-layer knobs of a TCP deployment. It
// applies to NewTCPNode and Serve only — in-process clusters have no wire,
// and simulations model delay through their own delay distribution. The
// zero value is the default wire. Dialing and reconnecting follow a fixed
// policy: 5s per attempt, six attempts per batch, backoff 25ms doubling to
// 500ms.
type WireConfig struct {
	// Codec selects nothing (see Codec): leave it empty or set BinaryCodec.
	Codec Codec
}

// ObserveConfig groups the observability knobs, following the WireConfig
// pattern: one composable sub-config per concern. The zero value observes
// nothing — the event path then costs a single nil check.
type ObserveConfig struct {
	// Observer, when non-nil, receives every protocol event. It applies to
	// clusters (NewClusterWith, NewTCPNode, Serve) and simulations
	// (Simulate, SimulateWithCrashes).
	Observer TraceSink
	// Metrics enables the built-in metrics aggregator on live clusters,
	// exposed through Cluster.Snapshot and TCPPeer.Snapshot (aggregate) and
	// SnapshotResource (per named lock). Simulations report metrics through
	// SimulationResult instead.
	Metrics bool
}

// FaultConfig groups the fault-machinery knobs: injected faults and the
// protocol's fault-handling toggles. The zero value means no injection and
// full §6 recovery.
type FaultConfig struct {
	// Chaos, when non-nil, interposes the seeded fault-injection layer on
	// an in-process cluster (NewClusterWith only — TCP deployments and
	// simulations reject it; the simulator has its own fault machinery).
	Chaos *ChaosPlan
	// DisableRecovery turns off the §6 failure recovery of the
	// delay-optimal protocol (and of Maekawa, which is the same machine).
	DisableRecovery bool
}

// Options configures a cluster or simulation.
type Options struct {
	// Protocol defaults to DelayOptimal.
	Protocol Protocol
	// Quorum selects the coterie for quorum-based protocols (default
	// GridQuorums). Ignored by the non-quorum baselines.
	Quorum Quorum
	// Observe groups the observability knobs: event stream and metrics
	// aggregation.
	Observe ObserveConfig
	// Faults groups the fault-machinery knobs: chaos injection and the §6
	// recovery/transfer toggles.
	Faults FaultConfig
	// Wire consolidates the byte-layer knobs of a TCP deployment: the wire
	// codec (NewTCPNode and Serve only; in-process clusters have no wire).
	Wire WireConfig
}

// Validate checks that the options name a known protocol, quorum
// construction, and wire codec; its errors list the valid choices.
func (o Options) Validate() error {
	if _, err := o.algorithm(); err != nil {
		return err
	}
	return o.Wire.Codec.validate()
}

// Construction returns the coterie construction named by q.
func (q Quorum) construction() (coterie.Construction, error) {
	cons, err := harness.NewConstruction(string(q))
	if err != nil {
		return nil, fmt.Errorf("dqmx: %w", err)
	}
	return cons, nil
}

// algorithm materializes the options into a protocol implementation.
func (o Options) algorithm() (mutex.Algorithm, error) {
	alg, _, err := o.algorithmAndConstruction()
	return alg, err
}

// algorithmAndConstruction materializes the options and also returns the
// resolved coterie construction, which live clusters keep for membership
// tracking (epoch-stamped reconfiguration plans over the same coterie
// family).
func (o Options) algorithmAndConstruction() (mutex.Algorithm, coterie.Construction, error) {
	cons, err := o.Quorum.construction()
	if err != nil {
		return nil, nil, err
	}
	alg, err := harness.NewAlgorithm(string(o.Protocol), cons, o.Faults.DisableRecovery)
	if err != nil {
		return nil, nil, fmt.Errorf("dqmx: %w", err)
	}
	return alg, cons, nil
}

// Cluster hosts all N sites in one process.
type Cluster struct {
	inner  *transport.Cluster
	quorum Quorum // the construction Reconfigure keeps when the target names none
}

// NewCluster starts an in-process cluster of n sites running the
// delay-optimal protocol over grid quorums. Use NewClusterWith for other
// protocols or coteries.
func NewCluster(n int) (*Cluster, error) {
	return NewClusterWith(n, Options{})
}

// NewClusterWith starts an in-process cluster with explicit options.
func NewClusterWith(n int, opts Options) (*Cluster, error) {
	if opts.Wire != (WireConfig{}) {
		return nil, errors.New("dqmx: Wire applies to TCP peers only; in-process clusters have no wire")
	}
	alg, cons, err := opts.algorithmAndConstruction()
	if err != nil {
		return nil, err
	}
	inner, err := transport.NewClusterConfig(transport.ClusterConfig{
		Algorithm:    alg,
		N:            n,
		Metrics:      opts.collector(),
		Observer:     opts.Observe.Observer,
		Chaos:        opts.Faults.Chaos,
		Construction: cons,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner, quorum: opts.Quorum}, nil
}

// collector builds the metrics aggregator when the options ask for one.
func (o Options) collector() *obs.Metrics {
	if !o.Observe.Metrics {
		return nil
	}
	return obs.NewMetrics()
}

// Node returns the handle for one site's default resource — the legacy
// single-mutex interface. Named locks live alongside it and never contend
// with it; see Lock.
func (c *Cluster) Node(id SiteID) *Node { return c.inner.Node(id) }

// N returns the number of sites.
func (c *Cluster) N() int { return c.inner.N() }

// Lock returns the canonical handle for the named lock, hosted at the site
// the name hashes to (so every Lock call for one name in this process
// shares a handle and queues locally instead of fighting the protocol).
// The resource's protocol instance — one full run of the algorithm over the
// cluster's coterie — is created lazily on first use. Use LockOn to pin a
// lock to a specific site instead.
func (c *Cluster) Lock(name string) (*Lock, error) {
	return c.inner.Lock(SiteID(fnv32a(name)%uint32(c.inner.N())), name)
}

// LockOn returns site id's handle for the named lock: requests issued
// through it enter the protocol at that site. Handles for the same name at
// different sites contend through the quorum protocol, exactly as two
// machines would.
func (c *Cluster) LockOn(id SiteID, name string) (*Lock, error) {
	return c.inner.Lock(id, name)
}

// Snapshot returns the cluster's aggregated live metrics — per-kind message
// counters and delay distributions over all sites and all named locks, with
// nanosecond timestamps. ok is false unless the cluster was built with
// Options.Observe.Metrics.
func (c *Cluster) Snapshot() (snap MetricsSnapshot, ok bool) { return c.inner.Snapshot() }

// SnapshotResource returns the live metrics of one named lock, so the
// paper's 3(K−1)..6(K−1) message bound stays checkable per resource. ok is
// false without Options.Observe.Metrics or when the resource has seen no
// events. The default resource (the Node API) is the empty name.
func (c *Cluster) SnapshotResource(name string) (snap MetricsSnapshot, ok bool) {
	return c.inner.SnapshotResource(name)
}

// Resources lists every lock name instantiated in the cluster, sorted; the
// empty name is the default resource backing the Node API.
func (c *Cluster) Resources() []string { return c.inner.Resources() }

// Close shuts every site down.
func (c *Cluster) Close() { c.inner.Close() }

// fnv32a is the 32-bit FNV-1a hash used to spread lock names over sites.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// NewTCPNode starts site id of an n-site cluster whose sites communicate over
// TCP, running DelayOptimal or Maekawa; the other protocols have no wire
// codec and are refused. peers maps every other site to its listen address.
// With Options.Observe.Metrics the peer's own protocol activity is aggregated
// and exposed through TCPPeer.Snapshot and TCPPeer.SnapshotResource. Named
// locks are reached through TCPPeer.Lock; the id range and the protocol are
// validated before anything listens so misconfigured deployments fail fast
// with a clear error.
func NewTCPNode(n int, id SiteID, listenAddr string, peers map[SiteID]string, opts Options) (*TCPPeer, error) {
	peer, _, err := newTCPPeer(n, id, listenAddr, peers, opts)
	return peer, err
}

// newTCPPeer builds the TCP peer and also returns its metrics collector so
// Serve can feed session-tier events into the same aggregate.
func newTCPPeer(n int, id SiteID, listenAddr string, peers map[SiteID]string, opts Options) (*TCPPeer, *obs.Metrics, error) {
	if int(id) < 0 || int(id) >= n {
		return nil, nil, fmt.Errorf("dqmx: site %d out of range 0..%d", id, n-1)
	}
	if opts.Faults.Chaos != nil {
		return nil, nil, errors.New("dqmx: chaos injection is supported on in-process clusters only")
	}
	alg, err := opts.algorithm()
	if err != nil {
		return nil, nil, err
	}
	// Only the §3 machine's messages have a wire codec. A peer running any
	// other protocol could encode none of its frames, and the reliable
	// sublayer would retransmit them forever.
	machine, ok := alg.(core.Algorithm)
	if !ok {
		return nil, nil, fmt.Errorf("dqmx: protocol %q is sim-only: it has no wire codec and runs under Simulate and NewClusterWith, not over TCP", opts.Protocol)
	}
	if err := opts.Wire.Codec.validate(); err != nil {
		return nil, nil, err
	}
	// The coterie is made and validated once; every resource gets a fresh,
	// independent run of the protocol over it, of which this peer builds only
	// its own site's machine.
	assign, err := machine.Assign(n)
	if err != nil {
		return nil, nil, err
	}
	col := opts.collector()
	peer, err := transport.NewTCPPeerConfig(transport.TCPConfig{
		Self: id,
		Factory: func(string) (mutex.Site, error) {
			return machine.NewSite(id, assign), nil
		},
		ListenAddr: listenAddr,
		Peers:      peers,
		N:          n,
		Metrics:    col,
		Observer:   opts.Observe.Observer,
	})
	if err != nil {
		return nil, nil, err
	}
	return peer, col, nil
}

// SimulationResult reports the metrics of one simulated run in the paper's
// units (message counts per CS execution, delays in multiples of the mean
// message delay T).
type SimulationResult struct {
	Algorithm      string
	N              int
	Completed      int
	MessagesPerCS  float64
	ByKind         map[string]uint64
	SyncDelayT     float64
	ResponseT      float64
	WaitingT       float64
	ThroughputPerT float64
}

// LoadShape selects the workload of a simulation.
type LoadShape int

// Workload shapes for Simulate.
const (
	// LightLoad issues uncontended sequential requests (§5.1).
	LightLoad LoadShape = iota + 1
	// HeavyLoad saturates every site (§5.2).
	HeavyLoad
)

// Simulate runs the deterministic discrete-event simulator for perSite CS
// executions per site and returns the measured metrics. It is the
// programmatic face of the paper's evaluation harness.
func Simulate(n int, opts Options, load LoadShape, perSite int, seed int64) (SimulationResult, error) {
	if opts.Faults.Chaos != nil {
		return SimulationResult{}, errors.New("dqmx: chaos injection applies to live clusters; use SimulateWithCrashes for simulated faults")
	}
	kind := harness.Heavy
	if load == LightLoad {
		kind = harness.Light
	}
	return simulate(opts, harness.Spec{N: n, Load: kind, PerSite: perSite, Seed: seed})
}

// CrashEvent schedules a site crash during a simulation, in units of the
// mean message delay T after the start.
type CrashEvent struct {
	AtT  float64
	Site SiteID
}

// SimulateWithCrashes runs a saturated simulation and crashes the given
// sites at the given times. Crashed sites are announced to the survivors
// after a failure-detection delay and the §6 recovery protocol rebuilds the
// affected quorums. It returns the metrics of the surviving executions.
func SimulateWithCrashes(n int, opts Options, perSite int, crashes []CrashEvent, seed int64) (SimulationResult, error) {
	if opts.Faults.Chaos != nil {
		return SimulationResult{}, errors.New("dqmx: chaos injection applies to live clusters; use the crashes argument for simulated faults")
	}
	spec := harness.Spec{N: n, Load: harness.Heavy, PerSite: perSite, Seed: seed}
	for _, ce := range crashes {
		spec.Crashes = append(spec.Crashes, harness.Crash{At: sim.Time(ce.AtT * float64(harness.DefaultDelay)), Site: ce.Site})
	}
	return simulate(opts, spec)
}

// simulate runs spec over the options' algorithm and observer.
func simulate(opts Options, spec harness.Spec) (SimulationResult, error) {
	alg, err := opts.algorithm()
	if err != nil {
		return SimulationResult{}, err
	}
	spec.Algorithm, spec.Observer = alg, opts.Observe.Observer
	res, err := harness.Run(spec)
	if err != nil {
		return SimulationResult{}, err
	}
	return SimulationResult{
		Algorithm:      res.Algorithm,
		N:              res.N,
		Completed:      res.Completed,
		MessagesPerCS:  res.MessagesPerCS,
		ByKind:         res.ByKind,
		SyncDelayT:     res.SyncDelay,
		ResponseT:      res.ResponseTime,
		WaitingT:       res.WaitingTime,
		ThroughputPerT: res.Throughput,
	}, nil
}

// QuorumOf returns the quorum (req_set) the construction assigns to site id
// in an n-site system — useful for inspecting deployments.
func QuorumOf(q Quorum, n int, id SiteID) ([]SiteID, error) {
	cons, err := q.construction()
	if err != nil {
		return nil, err
	}
	assign, err := cons.Assign(n)
	if err != nil {
		return nil, err
	}
	quorum := assign.Quorum(id)
	out := make([]SiteID, len(quorum))
	copy(out, quorum)
	return out, nil
}
