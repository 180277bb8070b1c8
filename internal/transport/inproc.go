package transport

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dqmx/internal/chaos"
	"dqmx/internal/clock"
	"dqmx/internal/coterie"
	"dqmx/internal/membership"
	"dqmx/internal/mutex"
	"dqmx/internal/obs"
	"dqmx/internal/resource"
)

// inprocSender routes envelopes between the managers of the same process,
// delivering each destination's share of a batch under one mailbox lock.
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

// SendBatch implements BatchSender with cross-destination coalescing: the
// batch is regrouped in place, stably, so that ALL of a destination's
// envelopes — not just consecutive runs — are injected as one batch under
// one mailbox lock, in their order.
func (s inprocSender) SendBatch(envs []mutex.Envelope) error {
	var firstErr error
	for start := 0; start < len(envs); {
		dest := envs[start].To
		end := start + 1
		for k := end; k < len(envs); k++ {
			if envs[k].To != dest {
				continue
			}
			if k != end {
				env := envs[k]
				copy(envs[end+1:k+1], envs[end:k])
				envs[end] = env
			}
			end++
		}
		if mgr := s.cluster.manager(dest); mgr == nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("transport: no node for site %d", dest)
			}
		} else if err := mgr.InjectBatch(envs[start:end]); err != nil && firstErr == nil {
			firstErr = err
		}
		start = end
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
	// plans merely delay the protocol instead of stalling it. Without a
	// plan there is no sublayer: the mailboxes are reliable FIFO channels
	// by construction. In-process clusters only.
	Chaos *chaos.Plan
	// Construction, when non-nil, names the coterie construction behind
	// Algorithm and enables online reconfiguration (Cluster.Reconfigure):
	// it provides the §6 avoiding rule for the old side of a handover. It
	// must be the same construction the algorithm assigns quorums with.
	Construction coterie.Construction
	// clock times the cluster and its parts (nil: clock.Real). Test-only.
	clock clock.Clock
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
	clock   clock.Clock  // the reliable layer's, the fabric's, crashes' and handovers'

	// members is the live site roster: sender goroutines read it lock-free
	// on every envelope, Reconfigure swaps it copy-on-write when sites join
	// or retire. Slot i hosts site i; a retired high slot is dropped by
	// publishing a shorter view.
	members atomic.Pointer[memberView]
	sender  BatchSender // the delivery stack handed to every new node

	// stage is the cluster's current membership stage (membership.Stage),
	// stamped onto every outgoing envelope by the per-resource senders.
	stage atomic.Uint64

	rel       *reliable                                // the reliable-delivery sublayer over the fabric; nil without one
	fabric    *chaos.Fabric                            // nil unless chaos injection was requested
	hook      atomic.Pointer[func(env mutex.Envelope)] // SetDeliveryHook's observer
	chaosStop chan struct{}
	chaosWG   sync.WaitGroup

	reconfMu sync.Mutex // serializes Reconfigure end to end
	policy   resource.Policy

	mu       sync.Mutex
	siteSets map[string][]mutex.Site // per-resource machines, built once per resource
	cfg      membership.Config       // last stable configuration; zero Coterie = membership untracked
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
		clock:    cfg.clock,
		siteSets: make(map[string][]mutex.Site),
		dead:     make(map[mutex.SiteID]bool),
	}
	if c.clock == nil {
		c.clock = clock.Real
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
		c.cfg = membership.Config{Epoch: 0, Construction: cfg.Construction, Coterie: assign}
	}
	// The delivery stack: inprocSender injects into the mailboxes, reliable
	// FIFO channels by construction (unbounded, filled on the sender's
	// goroutine). A chaos plan's fabric can lose, so the reliable sublayer
	// goes above it: node → sublayer → fabric → sublayer.Receive → mailbox.
	var sender BatchSender = inprocSender{cluster: c}
	if cfg.Chaos != nil {
		c.rel = newReliable(sender.Send, c.sink, c.clock)
		c.fabric = chaos.NewFabric(*cfg.Chaos, c.rel.Receive, c.clock)
		c.chaosStop = make(chan struct{})
		c.rel.start(c.fabric)
		sender = c.rel
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
			c.chaosWG.Add(1)
			go func() {
				defer c.chaosWG.Done()
				if clock.Sleep(c.clock, cr.After, c.chaosStop) {
					c.killSite(cr.Site, cr.DetectAfter, c.chaosStop)
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

// siteFor hands out site id's machine for a resource, building the
// resource's full site set on first use so all managers share one coherent
// coterie assignment per resource. Sets are built at the live site count,
// extended when the cluster has grown past them, and each handed-out
// machine is moved onto the membership in force — a machine that sat
// unwired in a set while a reconfiguration advanced is still idle, so the
// swap is a plain req_set replacement, and one already there is left as it
// is (mutex.Reconfigurable).
func (c *Cluster) siteFor(name string, id mutex.SiteID) (mutex.Site, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	set, ok := c.siteSets[name]
	if !ok || int(id) >= len(set) {
		// First use, or the cluster grew past this resource's set: build the
		// machines at the live size and graft the missing tail on.
		fresh, err := c.alg.NewSites(c.liveNLocked())
		if err != nil {
			return nil, fmt.Errorf("transport: build sites: %w", err)
		}
		if int(id) >= len(fresh) {
			return nil, fmt.Errorf("transport: site %d out of range for resource %q", id, name)
		}
		set = append(set, fresh[len(set):]...)
		c.siteSets[name] = set
	}
	site := set[id]
	if stage := c.stage.Load(); stage != 0 {
		rc, ok := site.(mutex.Reconfigurable)
		if !ok {
			return nil, fmt.Errorf("transport: site %d of resource %q cannot adopt membership stage %d", id, name, stage)
		}
		rc.SetMembership(c.memberLocked(id))
	}
	return site, nil
}

// liveNLocked is the site count of the membership in force: the joint
// roster during a handover, the configuration's otherwise, and the roster
// when the algorithm's coterie is not tracked (it never reconfigures).
func (c *Cluster) liveNLocked() int {
	switch {
	case c.handover != nil:
		return c.handover.JointN()
	case c.cfg.Coterie != nil:
		return c.cfg.N()
	}
	return c.N()
}

// memberLocked is what site id runs at the cluster's current stage, as the
// membership plan states it.
func (c *Cluster) memberLocked(id mutex.SiteID) mutex.Membership {
	if c.handover != nil {
		return c.handover.JointMember(id)
	}
	return c.cfg.Member(id)
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
// an envelope still queued in the node's inbox has not been delivered. Each
// envelope is seen once: a mailbox delivers what it is handed exactly once,
// and over the chaos fabric the reliability layer keeps retransmitted and
// duplicated copies from reaching a node.
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
