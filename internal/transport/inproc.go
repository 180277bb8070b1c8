package transport

import (
	"fmt"
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

// inprocSender routes envelopes between the hosts of the same process,
// delivering each destination's share of a batch under one mailbox lock.
type inprocSender struct {
	cluster *Cluster
}

// Send implements Sender.
func (s inprocSender) Send(env mutex.Envelope) error {
	h := s.cluster.host(env.To)
	if h == nil {
		return fmt.Errorf("transport: no node for site %d", env.To)
	}
	return h.inject(env)
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
		if h := s.cluster.host(dest); h == nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("transport: no node for site %d", dest)
			}
		} else if err := h.injectBatch(envs[start:end]); err != nil && firstErr == nil {
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

// Cluster hosts every site of an algorithm in one process, one host per
// site, and multiplexes any number of named locks over them: each resource
// name lazily gets its own full protocol instance (N fresh site machines
// over the same coterie), each site machine on its own goroutine, wired by
// in-memory FIFO mailboxes. The legacy single-mutex interface —
// Node(id).Acquire/Release — is the default resource's instance; named
// locks are reached through Lock.
type Cluster struct {
	alg     mutex.Algorithm
	metrics *obs.Metrics // nil unless metrics collection was requested
	sink    obs.Sink     // combined metrics+observer sink
	clock   clock.Clock  // the reliable layer's, the fabric's, crashes' and handovers'

	// hosts is the live site roster: sender goroutines read it lock-free
	// on every envelope, Reconfigure swaps it copy-on-write when sites join
	// or retire. Slot i hosts site i; a retired high slot is dropped by
	// publishing a shorter roster.
	hosts  atomic.Pointer[[]*host]
	sender BatchSender // the delivery stack handed to every new node

	// stage is the cluster's current membership stage (membership.Stage),
	// stamped onto every outgoing envelope by the per-resource senders.
	stage atomic.Uint64
	// dead is the sites recorded crashed, one record shared by every host.
	dead *deadSet
	// joinMu orders crash records against roster growth: killSite records
	// a crash and loads the roster it sweeps under it, and grow opens the
	// joining hosts and publishes them under it. So a joining host's
	// instance either reads the crash at birth or is swept by it.
	joinMu sync.Mutex

	rel       *reliable                                // the reliable-delivery sublayer over the fabric; nil without one
	fabric    *chaos.Fabric                            // nil unless chaos injection was requested
	hook      atomic.Pointer[func(env mutex.Envelope)] // SetDeliveryHook's observer
	chaosStop chan struct{}
	chaosWG   sync.WaitGroup

	reconfMu sync.Mutex // serializes Reconfigure end to end

	mu       sync.Mutex
	siteSets map[string][]mutex.Site // per-resource machines, built once per resource
	cfg      membership.Config       // last stable configuration; zero Coterie = membership untracked
	handover *membership.Handover    // non-nil while a handover is in progress
}

// NewClusterConfig builds and starts an in-process cluster with explicit
// configuration.
func NewClusterConfig(cfg ClusterConfig) (*Cluster, error) {
	c := &Cluster{
		alg:      cfg.Algorithm,
		metrics:  cfg.Metrics,
		sink:     cfg.Observer,
		clock:    cfg.clock,
		dead:     newDeadSet(),
		siteSets: make(map[string][]mutex.Site),
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
	hosts := make([]*host, cfg.N)
	for i := range hosts {
		hosts[i] = c.newHost(mutex.SiteID(i))
	}
	c.hosts.Store(&hosts)
	for _, h := range hosts {
		if err := h.open(); err != nil {
			c.Close()
			return nil, err
		}
	}
	// Start the chaos crash scheduler only once every host is open: a
	// crash with a tiny After would otherwise race killSite's host() lookup
	// against the construction loop above.
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

// newHost builds site id's host over the cluster's shared site sets,
// delivery stack, stage, dead set and delivery hook.
func (c *Cluster) newHost(id mutex.SiteID) *host {
	factory := func(name string) (mutex.Site, error) { return c.siteFor(name, id) }
	return newHost(id, factory, c.sender, c.sink, &c.stage, c.dead, c.delivered)
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
// resource's full site set on first use so all hosts share one coherent
// coterie assignment per resource. Sets are built at the live site count
// and extended when the cluster has grown past them; the host moves each
// handed-out machine onto the membership it recorded.
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
	return set[id], nil
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
	h := c.host(id)
	if h == nil {
		return nil, fmt.Errorf("transport: site %d out of range 0..%d", id, c.N()-1)
	}
	return h.lock(name)
}

// Resources lists every resource name instantiated anywhere in the cluster,
// sorted and de-duplicated (the default resource is always present).
func (c *Cluster) Resources() []string {
	seen := make(map[string]bool)
	var out []string
	for _, h := range c.roster() {
		for _, name := range h.resources() {
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
	if h := c.host(id); h != nil {
		return h.node
	}
	return nil
}

// N returns the current number of sites. It changes when Reconfigure grows
// or shrinks the cluster.
func (c *Cluster) N() int { return len(c.roster()) }

// Epoch returns the cluster's current stable configuration epoch, and
// Stage the totally ordered membership stage (which additionally exposes
// the joint phase while a reconfiguration is in flight).
func (c *Cluster) Epoch() membership.Epoch { return c.Stage().Epoch() }

// Stage returns the cluster's current membership stage.
func (c *Cluster) Stage() membership.Stage { return membership.Stage(c.stage.Load()) }

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
	for _, h := range c.roster() {
		h.dump(&b)
	}
	return b.String()
}

// roster is the live site roster; slot i hosts site i.
func (c *Cluster) roster() []*host { return *c.hosts.Load() }

// host returns site id's host, or nil when id is not in the roster.
func (c *Cluster) host(id mutex.SiteID) *host {
	hosts := c.roster()
	if int(id) < 0 || int(id) >= len(hosts) {
		return nil
	}
	return hosts[id]
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
	for _, h := range c.roster() {
		h.close()
	}
	if c.rel != nil {
		c.rel.Close()
	}
	if c.fabric != nil {
		c.fabric.Close()
	}
}
