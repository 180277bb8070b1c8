package transport

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dqmx/internal/chaos"
	"dqmx/internal/coterie"
	"dqmx/internal/membership"
	"dqmx/internal/mutex"
	"dqmx/internal/obs"
	"dqmx/internal/resource"
)

// inprocSender routes envelopes between the managers of the same process,
// delivering consecutive same-destination runs under one mailbox lock.
type inprocSender struct {
	cluster *Cluster
}

// Send implements Sender.
func (s inprocSender) Send(env mutex.Envelope) error {
	mgr := s.cluster.manager(env.To)
	if mgr == nil {
		return fmt.Errorf("transport: no node for site %d", env.To)
	}
	return mgr.Inject(env)
}

// SendBatch implements BatchSender with cross-destination coalescing: ALL of
// a destination's envelopes in the batch — not just consecutive runs — are
// injected as one batch under one mailbox lock, preserving per-destination
// order. Interleaved destinations (a multi-resource step fanning out to the
// same quorum) therefore cost one injection per destination.
func (s inprocSender) SendBatch(envs []mutex.Envelope) error {
	var firstErr error
	var group []mutex.Envelope
	forEachDestination(envs, func(dest mutex.SiteID) {
		mgr := s.cluster.manager(dest)
		if mgr == nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("transport: no node for site %d", dest)
			}
			return
		}
		group = group[:0]
		for _, env := range envs {
			if env.To == dest {
				group = append(group, env)
			}
		}
		if err := mgr.InjectBatch(group); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return firstErr
}

// relWire is the perfect in-process wire under the reliability layer: the
// sender's goroutine hands each envelope straight to the layer's receive
// side, which routes it into the destination mailbox. The layer's lock is
// never held across this hop, so the inline re-entry cannot deadlock.
type relWire struct {
	rel *reliable
}

// Send implements Sender.
func (w relWire) Send(env mutex.Envelope) error { return w.rel.Receive(env) }

// SendBatch implements BatchSender.
func (w relWire) SendBatch(envs []mutex.Envelope) error {
	var firstErr error
	for _, env := range envs {
		if err := w.rel.Receive(env); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ClusterConfig configures an in-process cluster.
type ClusterConfig struct {
	// Algorithm builds the per-resource site machines.
	Algorithm mutex.Algorithm
	// N is the number of sites.
	N int
	// Metrics, when non-nil, aggregates the cluster's events (exposed
	// through Snapshot and SnapshotResource).
	Metrics *obs.Metrics
	// Observer, when non-nil, receives the raw event stream.
	Observer obs.Sink
	// Policy bounds named-lock resource names.
	Policy resource.Policy
	// Chaos, when non-nil, interposes a seeded fault-injecting fabric
	// between every node and the in-process mailboxes: message drop,
	// duplication, reordering, bounded delay, and partitions per the plan,
	// plus scheduled site crashes executed through the §6 failure path.
	// The reliable-delivery sublayer sits above the fabric, so drop-only
	// plans merely delay the protocol instead of stalling it.
	// In-process clusters only.
	Chaos *chaos.Plan
	// Construction, when non-nil, names the coterie construction behind
	// Algorithm and enables online reconfiguration (Cluster.Reconfigure):
	// it provides the §6 avoiding rule for the old side of a handover. It
	// must be the same construction the algorithm assigns quorums with.
	Construction coterie.Construction
	// unreliable bypasses the reliable-delivery sublayer, wiring nodes
	// straight to the mailboxes (or the chaos fabric) as before it existed.
	// Test-only: it lets the obs-accounting equivalence test compare message
	// tallies with the layer on and off.
	unreliable bool
}

// Cluster hosts every site of an algorithm in one process and multiplexes
// any number of named locks over them: each resource name lazily gets its
// own full protocol instance (N fresh site machines over the same coterie),
// each site machine on its own goroutine, wired by in-memory FIFO
// mailboxes. The legacy single-mutex interface — Node(id).Acquire/Release —
// is the default resource's instance; named locks are reached through Lock.
type Cluster struct {
	alg     mutex.Algorithm
	metrics *obs.Metrics // nil unless metrics collection was requested
	sink    obs.Sink     // combined metrics+observer sink

	// members is the live site roster: sender goroutines read it lock-free
	// on every envelope, Reconfigure swaps it copy-on-write when sites join
	// or retire. Slot i hosts site i; a retired high slot is dropped by
	// publishing a shorter view.
	members atomic.Pointer[memberView]
	sender  BatchSender // the delivery stack handed to every new node

	// stage is the cluster's current membership stage (membership.Stage),
	// stamped onto every outgoing envelope by the per-resource senders.
	stage atomic.Uint64

	rel       *reliable                                // the reliable-delivery sublayer; nil only in test bypass mode
	fabric    *chaos.Fabric                            // nil unless chaos injection was requested
	hook      atomic.Pointer[func(env mutex.Envelope)] // SetDeliveryHook's observer
	chaosStop chan struct{}
	chaosWG   sync.WaitGroup

	reconfMu sync.Mutex // serializes Reconfigure end to end
	policy   resource.Policy

	mu       sync.Mutex
	siteSets map[string][]mutex.Site // per-resource machines, built once per resource
	cfg      membership.Config       // last stable configuration; zero Coterie = membership untracked
	cons     coterie.Construction    // construction behind cfg (may be nil)
	handover *membership.Handover    // non-nil while a handover is in progress
	dead     map[mutex.SiteID]bool   // sites announced crashed (killSite)
}

// memberView is one immutable snapshot of the cluster roster.
type memberView struct {
	managers []*resource.Manager
	nodes    []*Node // default-resource instances, cached for Node(id)
}

// NewCluster builds and starts an in-process cluster of n sites with
// observability disabled.
func NewCluster(alg mutex.Algorithm, n int) (*Cluster, error) {
	return NewClusterConfig(ClusterConfig{Algorithm: alg, N: n})
}

// NewClusterObserved builds and starts an in-process cluster whose nodes
// all feed the given metrics collector (exposed through Snapshot) and raw
// event sink. Either may be nil; when both are nil the event path reduces
// to a per-event nil check.
func NewClusterObserved(alg mutex.Algorithm, n int, m *obs.Metrics, sink obs.Sink) (*Cluster, error) {
	return NewClusterConfig(ClusterConfig{Algorithm: alg, N: n, Metrics: m, Observer: sink})
}

// NewClusterConfig builds and starts an in-process cluster with explicit
// configuration.
func NewClusterConfig(cfg ClusterConfig) (*Cluster, error) {
	c := &Cluster{
		alg:      cfg.Algorithm,
		metrics:  cfg.Metrics,
		sink:     cfg.Observer,
		siteSets: make(map[string][]mutex.Site),
		dead:     make(map[mutex.SiteID]bool),
	}
	if cfg.Metrics != nil {
		c.sink = obs.Tee(cfg.Metrics.Observe, cfg.Observer)
	}
	// Build the default resource's site set up front: it validates the
	// algorithm and site count at construction even for degenerate N.
	defaultSites, err := cfg.Algorithm.NewSites(cfg.N)
	if err != nil {
		return nil, fmt.Errorf("transport: build sites: %w", err)
	}
	c.siteSets[resource.Default] = defaultSites
	// Record the epoch-0 configuration for online reconfiguration. The
	// coterie is read off the live site machines — the ground truth of what
	// the handover's old side must intersect — so membership tracking works
	// for any algorithm whose sites expose their req_set.
	if assign := assignmentOf(defaultSites); assign != nil {
		c.cfg = membership.Config{Epoch: 0, Sites: siteIDRange(cfg.N), Coterie: assign}
		c.cons = cfg.Construction
	}
	// The delivery stack, bottom-up: inprocSender injects into mailboxes;
	// the reliable sublayer's receive side feeds it; the wire under the
	// sublayer is either the chaos fabric or a perfect inline loopback.
	var sender BatchSender = inprocSender{cluster: c}
	if !cfg.unreliable {
		c.rel = newReliable(sender.Send, c.sink)
	}
	if cfg.Chaos != nil {
		if c.rel != nil {
			c.fabric = chaos.NewFabric(*cfg.Chaos, c.rel.Receive)
		} else {
			direct := sender
			c.fabric = chaos.NewFabric(*cfg.Chaos, direct.Send)
		}
		c.chaosStop = make(chan struct{})
	}
	switch {
	case c.rel != nil && c.fabric != nil:
		c.rel.start(c.fabric)
		sender = c.rel
	case c.rel != nil:
		c.rel.start(relWire{rel: c.rel})
		sender = c.rel
	case c.fabric != nil:
		sender = c.fabric
	}
	c.sender = sender
	view := &memberView{
		managers: make([]*resource.Manager, cfg.N),
		nodes:    make([]*Node, cfg.N),
	}
	for i := 0; i < cfg.N; i++ {
		view.managers[i] = c.newManager(mutex.SiteID(i), cfg.Policy)
	}
	c.policy = cfg.Policy
	c.members.Store(view)
	// The default resource is eager: it validates the algorithm/coterie at
	// construction and backs the legacy Node(id) interface.
	for i, mgr := range view.managers {
		inst, err := mgr.Instance(resource.Default)
		if err != nil {
			c.Close()
			return nil, err
		}
		view.nodes[i] = inst.(*Node)
	}
	// Start the chaos crash scheduler only once every manager exists: a
	// crash with a tiny After would otherwise race killSite's manager()
	// lookup against the construction loop above.
	if cfg.Chaos != nil {
		for _, cr := range cfg.Chaos.Crashes {
			cr := cr
			c.chaosWG.Add(1)
			go func() {
				defer c.chaosWG.Done()
				timer := time.NewTimer(cr.After)
				defer timer.Stop()
				select {
				case <-timer.C:
					c.killSite(cr.Site, cr.DetectAfter, c.chaosStop)
				case <-c.chaosStop:
				}
			}()
		}
	}
	return c, nil
}

// newManager builds site id's resource manager: the per-site table of lazy
// protocol instances sharing the cluster's delivery stack.
func (c *Cluster) newManager(id mutex.SiteID, policy resource.Policy) *resource.Manager {
	return resource.NewManager(resource.Config{
		Policy: policy,
		New: func(name string) (resource.Instance, error) {
			site, err := c.siteFor(name, id)
			if err != nil {
				return nil, err
			}
			node := newResourceNode(name, site, c.sender, c.sink, &c.stage, c.delivered)
			// An instance born after a crash announcement learns of it the
			// way the instances alive at the time did; otherwise its quorum
			// may wait on the dead site for good. The manager calls New under
			// the lock killSite's sweep takes, so no instance misses both.
			for _, f := range c.deadSites() {
				node.Inject(failureEnvelope(name, id, f))
			}
			return node, nil
		},
	})
}

// deadSites lists the sites announced crashed, ascending, so a lock
// instance born later learns of them in the same order on every run.
func (c *Cluster) deadSites() []mutex.SiteID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Sorted(maps.Keys(c.dead))
}

// assignmentOf reads the coterie assignment off a freshly built site set,
// or nil when the algorithm's sites do not expose their req_set.
func assignmentOf(sites []mutex.Site) *coterie.Assignment {
	assign := &coterie.Assignment{N: len(sites), Quorums: make([]coterie.Quorum, len(sites))}
	for i, s := range sites {
		q, ok := s.(interface{ Quorum() coterie.Quorum })
		if !ok {
			return nil
		}
		assign.Quorums[i] = q.Quorum()
	}
	return assign
}

func siteIDRange(n int) []mutex.SiteID {
	ids := make([]mutex.SiteID, n)
	for i := range ids {
		ids[i] = mutex.SiteID(i)
	}
	return ids
}

// stagedSite is the probe for a machine's current membership stage tag.
type stagedSite interface{ MembershipStage() uint64 }

// siteFor hands out site id's machine for a resource, building the
// resource's full site set on first use so all managers share one coherent
// coterie assignment per resource. Sets are built for the membership in
// force at build time, extended when the cluster has grown past them, and
// each handed-out machine is normalized to the current membership stage —
// a machine that sat unwired in a set while a reconfiguration advanced is
// still idle, so the swap is a plain req_set replacement.
func (c *Cluster) siteFor(name string, id mutex.SiteID) (mutex.Site, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	live := c.liveMembershipLocked()
	set, ok := c.siteSets[name]
	if !ok {
		var err error
		set, err = c.buildSitesLocked(live)
		if err != nil {
			return nil, err
		}
		c.siteSets[name] = set
	}
	if int(id) >= len(set) {
		// The cluster grew past this resource's set: build the tail
		// machines at the current membership and graft them on.
		fresh, err := c.buildSitesLocked(live)
		if err != nil {
			return nil, err
		}
		if int(id) >= len(fresh) {
			return nil, fmt.Errorf("transport: site %d out of range for resource %q", id, name)
		}
		set = append(set, fresh[len(set):]...)
		c.siteSets[name] = set
	}
	site := set[id]
	if live.stage != 0 {
		if st, ok := site.(stagedSite); !ok || st.MembershipStage() != live.stage {
			rc, ok := site.(mutex.Reconfigurable)
			if !ok {
				return nil, fmt.Errorf("transport: site %d of resource %q cannot adopt membership stage %d", id, name, live.stage)
			}
			rc.SetMembership(live.n, live.quorum(id), live.avoid(id), live.stage)
		}
	}
	return site, nil
}

// liveMembership describes the membership new or unwired machines must
// adopt: the live system size, per-site req_sets, and §6 avoiding rules,
// tagged with the current stage. stage 0 means the cluster has never
// reconfigured and machines are used as the algorithm built them.
type liveMembership struct {
	n      int
	stage  uint64
	quorum func(id mutex.SiteID) []mutex.SiteID
	avoid  func(id mutex.SiteID) func(down map[mutex.SiteID]bool) ([]mutex.SiteID, bool)
}

func (c *Cluster) liveMembershipLocked() liveMembership {
	if h := c.handover; h != nil {
		return liveMembership{
			n:      h.JointN(),
			stage:  c.stage.Load(),
			quorum: func(id mutex.SiteID) []mutex.SiteID { return []mutex.SiteID(h.JointQuorum(id)) },
			avoid: func(id mutex.SiteID) func(down map[mutex.SiteID]bool) ([]mutex.SiteID, bool) {
				return jointAvoidFunc(h, id)
			},
		}
	}
	cfg, cons := c.cfg, c.cons
	return liveMembership{
		n:      cfg.N(),
		stage:  c.stage.Load(),
		quorum: func(id mutex.SiteID) []mutex.SiteID { return []mutex.SiteID(cfg.Coterie.Quorum(id)) },
		avoid: func(id mutex.SiteID) func(down map[mutex.SiteID]bool) ([]mutex.SiteID, bool) {
			return stableAvoidFunc(cons, cfg.N(), id)
		},
	}
}

// buildSitesLocked builds a fresh full site set for the current membership:
// the algorithm's machines at the live site count. Req_set normalization to
// the live membership happens in siteFor when a machine is handed out.
func (c *Cluster) buildSitesLocked(live liveMembership) ([]mutex.Site, error) {
	set, err := c.alg.NewSites(live.n)
	if err != nil {
		return nil, fmt.Errorf("transport: build sites: %w", err)
	}
	return set, nil
}

// jointAvoidFunc is the §6 avoiding rule during a handover: rebuild as the
// union of an old- and a new-coterie quorum so the replacement stays joint.
func jointAvoidFunc(h *membership.Handover, id mutex.SiteID) func(down map[mutex.SiteID]bool) ([]mutex.SiteID, bool) {
	return func(down map[mutex.SiteID]bool) ([]mutex.SiteID, bool) {
		q, err := h.JointAvoiding(id, down)
		if err != nil {
			return nil, false
		}
		return []mutex.SiteID(q), true
	}
}

// stableAvoidFunc is the §6 avoiding rule of a stable configuration: the
// construction's QuorumAvoiding at the configuration's size. A nil
// construction disables rebuilds (safety over progress).
func stableAvoidFunc(cons coterie.Construction, n int, id mutex.SiteID) func(down map[mutex.SiteID]bool) ([]mutex.SiteID, bool) {
	if cons == nil {
		return nil
	}
	return func(down map[mutex.SiteID]bool) ([]mutex.SiteID, bool) {
		q, err := cons.QuorumAvoiding(n, id, down)
		if err != nil {
			return nil, false
		}
		return []mutex.SiteID(q), true
	}
}

// Snapshot returns the aggregated live metrics over every resource. ok is
// false when the cluster was built without a metrics collector.
func (c *Cluster) Snapshot() (snap obs.Snapshot, ok bool) {
	if c.metrics == nil {
		return obs.Snapshot{}, false
	}
	return c.metrics.Snapshot(), true
}

// SnapshotResource returns the live metrics of one named lock. ok is false
// without a metrics collector or when the resource has seen no events.
func (c *Cluster) SnapshotResource(name string) (snap obs.Snapshot, ok bool) {
	if c.metrics == nil {
		return obs.Snapshot{}, false
	}
	return c.metrics.SnapshotResource(name)
}

// Lock returns site id's canonical handle for the named lock, instantiating
// the resource's protocol instance on first use.
func (c *Cluster) Lock(id mutex.SiteID, name string) (*resource.Lock, error) {
	mgr := c.manager(id)
	if mgr == nil {
		return nil, fmt.Errorf("transport: site %d out of range 0..%d", id, c.N()-1)
	}
	return mgr.Lock(name)
}

// Resources lists every resource name instantiated anywhere in the cluster,
// sorted and de-duplicated (the default resource is always present).
func (c *Cluster) Resources() []string {
	seen := make(map[string]bool)
	var out []string
	for _, mgr := range c.members.Load().managers {
		for _, name := range mgr.Resources() {
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Node returns the node hosting the given site's default resource — the
// legacy single-mutex interface, now a shim over Lock's machinery.
func (c *Cluster) Node(id mutex.SiteID) *Node {
	view := c.members.Load()
	if int(id) < 0 || int(id) >= len(view.nodes) {
		return nil
	}
	return view.nodes[id]
}

// N returns the current number of sites. It changes when Reconfigure grows
// or shrinks the cluster.
func (c *Cluster) N() int { return len(c.members.Load().managers) }

// Epoch returns the cluster's current stable configuration epoch, and
// Stage the totally ordered membership stage (which additionally exposes
// the joint phase while a reconfiguration is in flight).
func (c *Cluster) Epoch() membership.Epoch { return c.Stage().Epoch() }

// Stage returns the cluster's current membership stage.
func (c *Cluster) Stage() membership.Stage { return membership.Stage(c.stage.Load()) }

// Chaos returns the cluster's fault-injecting fabric, or nil when the
// cluster was built without a chaos plan.
func (c *Cluster) Chaos() *chaos.Fabric { return c.fabric }

// SetDeliveryHook installs an observer of envelope deliveries — the
// conformance checker's view of the wire. The hook fires on the receiving
// node's loop goroutine once the site has processed the envelope, so an
// envelope counts as delivered only after it has changed the site's state;
// an envelope still queued in the node's inbox has not been delivered. Above
// the reliability layer each envelope is seen once: retransmitted and
// duplicated copies never reach a node.
func (c *Cluster) SetDeliveryHook(hook func(env mutex.Envelope)) {
	c.hook.Store(&hook)
}

// delivered is every in-process node's delivery callback.
func (c *Cluster) delivered(env mutex.Envelope) {
	if hook := c.hook.Load(); hook != nil {
		(*hook)(env)
	}
}

// DumpState renders the protocol state of every instantiated resource node
// in the cluster, one line per (site, resource). Each line is produced on
// the owning node's loop goroutine, so the dump is safe under live traffic.
func (c *Cluster) DumpState() string {
	var b strings.Builder
	for _, mgr := range c.members.Load().managers {
		if mgr == nil {
			continue
		}
		mgr.Each(func(name string, inst resource.Instance) {
			node, ok := inst.(*Node)
			if !ok {
				return
			}
			label := name
			if label == resource.Default {
				label = "(default)"
			}
			fmt.Fprintf(&b, "[%s] %s\n", label, node.Dump())
		})
	}
	return b.String()
}

func (c *Cluster) manager(id mutex.SiteID) *resource.Manager {
	view := c.members.Load()
	if int(id) < 0 || int(id) >= len(view.managers) {
		return nil
	}
	return view.managers[id]
}

// Close stops every instance of every resource and waits for their loops to
// exit, then tears down the reliability and chaos layers. The order matters:
// the reliability loop may still hand retransmissions to the fabric, so it
// stops before the fabric does.
func (c *Cluster) Close() {
	if c.chaosStop != nil {
		close(c.chaosStop)
		c.chaosWG.Wait()
		c.chaosStop = nil
	}
	for _, mgr := range c.members.Load().managers {
		if mgr != nil {
			mgr.Close()
		}
	}
	if c.rel != nil {
		c.rel.Close()
	}
	if c.fabric != nil {
		c.fabric.Close()
	}
}
