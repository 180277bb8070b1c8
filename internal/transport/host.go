package transport

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"dqmx/internal/mutex"
	"dqmx/internal/obs"
	"dqmx/internal/resource"
)

// host is one site's lock table, the same for both live runtimes: a TCPPeer
// holds one, an in-process Cluster one per site. It maps a name to the
// name's instance and canonical handle, it is the only code that builds a
// lock instance, and it is the only code that tells a site's instances of a
// crash or a membership stage, so the two rules a lock first used late
// depends on are stated here once:
//
//   - every instance runs the membership recorded at its site, and
//   - every instance processes failure(f) for each site f recorded dead
//     there (§6), in ascending order.
//
// Its callers record before they sweep (dead.add before announce, adopt
// before install), and build runs under the build lock, which each sweep's
// walk (nodes) takes too. So an instance built while a sweep runs
// either reads the record at birth or is already in the table when the
// sweep walks it: none misses both.
type host struct {
	self      mutex.SiteID
	factory   func(name string) (mutex.Site, error)
	sender    BatchSender
	sink      obs.Sink
	stage     *atomic.Uint64
	dead      *deadSet // shared by a cluster's hosts
	delivered func(env mutex.Envelope)
	node      *Node // the default resource's instance, set by open

	// Every live workload runs one lock or a few, looked up on every
	// inbound envelope and built once each, so reads of entries take no
	// lock and builds take buildMu.
	entries sync.Map   // name → *entry
	buildMu sync.Mutex // held while an instance is built, and by nodes' snapshot
	closed  bool       // guarded by buildMu

	mu     sync.Mutex
	member *mutex.Membership // the membership in force here; nil: the factory's own quorum
}

// entry is one lock's instance at a site and the handle driving it.
type entry struct {
	node *Node
	lock *resource.Lock
}

// get returns name's entry, building its instance and handle on first use.
// The name is checked only on a miss, so once; the default resource is the
// host's own and skips the check.
func (h *host) get(name string) (*entry, error) {
	if e, ok := h.entries.Load(name); ok {
		return e.(*entry), nil
	}
	if name != resource.Default {
		if err := resource.CheckName(name); err != nil {
			return nil, err
		}
	}
	h.buildMu.Lock()
	defer h.buildMu.Unlock()
	if e, ok := h.entries.Load(name); ok {
		return e.(*entry), nil
	}
	if h.closed {
		return nil, resource.ErrClosed
	}
	node, err := h.build(name)
	if err != nil {
		return nil, err
	}
	e := &entry{node: node, lock: resource.NewLock(name, node)}
	h.entries.Store(name, e)
	return e, nil
}

// lock returns the canonical handle for the named lock, building its
// instance on first use. Two calls with one name return the same *Lock, so
// local contention for a name queues on the handle instead of surfacing as
// the protocol's busy error. The empty name is rejected: the default
// resource belongs to the legacy single-mutex API.
func (h *host) lock(name string) (*resource.Lock, error) {
	if name == resource.Default {
		return nil, resource.CheckName(name)
	}
	e, err := h.get(name)
	if err != nil {
		return nil, err
	}
	return e.lock, nil
}

// inject routes one inbound envelope to the instance its Resource names.
func (h *host) inject(env mutex.Envelope) error {
	return h.injectBatch([]mutex.Envelope{env})
}

// injectBatch routes inbound envelopes to the instances their Resource
// names, building one on first use (a remote site may open a lock this site
// has never touched). It hands each consecutive same-resource run over at
// once, so an instance takes its mailbox lock once per run, in order. An
// envelope whose resource fails CheckName is dropped; it returns the first
// such error, having routed the rest.
func (h *host) injectBatch(envs []mutex.Envelope) error {
	var firstErr error
	for start := 0; start < len(envs); {
		end := start + 1
		for end < len(envs) && envs[end].Resource == envs[start].Resource {
			end++
		}
		if e, err := h.get(envs[start].Resource); err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			e.node.InjectBatch(envs[start:end])
		}
		start = end
	}
	return firstErr
}

// nodes is a snapshot of the instances, taken under the build lock.
func (h *host) nodes() []*Node {
	var nodes []*Node
	h.buildMu.Lock()
	h.entries.Range(func(_, e any) bool {
		nodes = append(nodes, e.(*entry).node)
		return true
	})
	h.buildMu.Unlock()
	return nodes
}

// resources lists every instantiated resource name, sorted.
func (h *host) resources() []string {
	var names []string
	for _, n := range h.nodes() {
		names = append(names, n.name)
	}
	slices.Sort(names)
	return names
}

// close shuts every instance down and fails the names first asked for later
// with resource.ErrClosed. It is idempotent.
func (h *host) close() {
	h.buildMu.Lock()
	closed := h.closed
	h.closed = true
	h.buildMu.Unlock()
	if !closed {
		for _, n := range h.nodes() {
			n.Close()
		}
	}
}

// deadSet is the sites recorded crashed, until revived: one per Cluster,
// shared by all its hosts, and one per TCPPeer.
type deadSet struct {
	mu  sync.Mutex
	ids map[mutex.SiteID]bool
}

func newDeadSet() *deadSet { return &deadSet{ids: make(map[mutex.SiteID]bool)} }

// add records that site f crashed.
func (d *deadSet) add(f mutex.SiteID) {
	d.mu.Lock()
	d.ids[f] = true
	d.mu.Unlock()
}

// revive forgets a crash record: instances built from here on are no longer
// told that id is dead (a site rejoining under its old ID).
func (d *deadSet) revive(id mutex.SiteID) {
	d.mu.Lock()
	delete(d.ids, id)
	d.mu.Unlock()
}

// sorted lists the sites recorded crashed, ascending, so every instance
// learns of them in the same order on every run.
func (d *deadSet) sorted() []mutex.SiteID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Sorted(maps.Keys(d.ids))
}

// newHost builds site self's host over a factory of site machines. Its
// instances send through sender, stamped with the resource name and the
// stage read from stage, and report to sink; they are born told of every
// site in dead. delivered, which may be nil, observes each envelope they
// process (see newNode). open must be called before the host is used.
func newHost(self mutex.SiteID, factory func(name string) (mutex.Site, error),
	sender BatchSender, sink obs.Sink, stage *atomic.Uint64, dead *deadSet, delivered func(env mutex.Envelope)) *host {
	return &host{
		self:      self,
		factory:   factory,
		sender:    sender,
		sink:      sink,
		stage:     stage,
		dead:      dead,
		delivered: delivered,
	}
}

// open builds the default resource's instance, which validates the factory
// and backs the legacy Node interface. On error the host is closed.
func (h *host) open() error {
	e, err := h.get(resource.Default)
	if err != nil {
		h.close()
		return err
	}
	h.node = e.node
	return nil
}

// build makes name's instance, under the build lock: the factory's
// machine, moved onto the recorded membership, started as a node, then told
// of every recorded crash. The machine is fresh, so the membership swap
// sends nothing.
func (h *host) build(name string) (*Node, error) {
	site, err := h.factory(name)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	member := h.member
	h.mu.Unlock()
	if member != nil {
		rc, ok := site.(mutex.Reconfigurable)
		if !ok {
			return nil, fmt.Errorf("transport: site %d resource %q at stage %d: %w", h.self, name, member.Stage, ErrNotReconfigurable)
		}
		rc.SetMembership(*member)
	}
	node := newNode(name, site, h.sender, h.sink, h.stage, h.delivered)
	for _, f := range h.dead.sorted() {
		node.Inject(failureEnvelope(name, h.self, f))
	}
	return node, nil
}

// failureEnvelope is the failure(f) notification a site's instance of a
// resource receives from its own failure detector.
func failureEnvelope(name string, self, failed mutex.SiteID) mutex.Envelope {
	return mutex.Envelope{Resource: name, From: self, To: self, Msg: mutex.FailureMsg{Failed: failed}}
}

// announce tells every instance that site f crashed, so each lock's §6
// recovery rebuilds its quorum around f. The caller has recorded f in the
// host's dead set, for the instances built from here on.
func (h *host) announce(f mutex.SiteID) {
	for _, n := range h.nodes() {
		n.Inject(failureEnvelope(n.name, h.self, f))
	}
}

// adopt records the membership every instance built from here on runs.
func (h *host) adopt(m mutex.Membership) {
	h.mu.Lock()
	h.member = &m
	h.mu.Unlock()
}

// install moves every instance onto m through Node.Reconfigure; the caller
// has adopted m first. Instances that closed meanwhile (a crash, a racing
// shutdown) are skipped: a stopped machine holds no quorum. It returns the
// first other error, having tried every instance.
func (h *host) install(m mutex.Membership) error {
	var firstErr error
	for _, n := range h.nodes() {
		if err := n.Reconfigure(m); err != nil && !errors.Is(err, ErrClosed) && firstErr == nil {
			firstErr = fmt.Errorf("transport: reconfigure site %d resource %q: %w", h.self, n.name, err)
		}
	}
	return firstErr
}

// dump appends one line of protocol state per instance; each line is
// rendered on the owning node's loop, so it is safe under live traffic.
func (h *host) dump(b *strings.Builder) {
	for _, n := range h.nodes() {
		name := n.name
		if name == resource.Default {
			name = "(default)"
		}
		fmt.Fprintf(b, "[%s] %s\n", name, n.Dump())
	}
}
