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

// host is one site's table of lock instances, the same for both live
// runtimes: a TCPPeer holds one, an in-process Cluster one per site. It is
// the only code that builds a lock instance and the only code that tells a
// site's instances of a crash or a membership stage, so the two rules a
// lock first used late depends on are stated here once:
//
//   - every instance runs the membership recorded at its site, and
//   - every instance processes failure(f) for each site f recorded dead
//     there (§6), in ascending order.
//
// Its callers record before they sweep (dead.add before announce, adopt
// before install), and the manager calls build under the table lock each
// sweep's walk (Manager.Each) takes. So an instance built while a sweep runs
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
	mgr       *resource.Manager
	node      *Node // the default resource's instance, set by open

	mu     sync.Mutex
	member *mutex.Membership // the membership in force here; nil: the factory's own quorum
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
// process (see NewNodeObserved). open must be called before the host is
// used.
func newHost(self mutex.SiteID, policy resource.Policy, factory func(name string) (mutex.Site, error),
	sender BatchSender, sink obs.Sink, stage *atomic.Uint64, dead *deadSet, delivered func(env mutex.Envelope)) *host {
	h := &host{
		self:      self,
		factory:   factory,
		sender:    sender,
		sink:      sink,
		stage:     stage,
		dead:      dead,
		delivered: delivered,
	}
	h.mgr = resource.NewManager(resource.Config{Policy: policy, New: h.build})
	return h
}

// open builds the default resource's instance, which validates the factory
// and backs the legacy Node interface. On error the host is closed.
func (h *host) open() error {
	inst, err := h.mgr.Instance(resource.Default)
	if err != nil {
		h.mgr.Close()
		return err
	}
	h.node = inst.(*Node)
	return nil
}

// build is the manager's New: the factory's machine, moved onto the
// recorded membership, started as a node, then told of every recorded
// crash. The machine is fresh, so the membership swap sends nothing.
func (h *host) build(name string) (resource.Instance, error) {
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
	node := newResourceNode(name, site, h.sender, h.sink, h.stage, h.delivered)
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
	h.mgr.Each(func(name string, inst resource.Instance) {
		inst.Inject(failureEnvelope(name, h.self, f))
	})
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
	h.every(func(name string, n *Node) bool {
		if err := n.Reconfigure(m); err != nil && !errors.Is(err, ErrClosed) && firstErr == nil {
			firstErr = fmt.Errorf("transport: reconfigure site %d resource %q: %w", h.self, name, err)
		}
		return true
	})
	return firstErr
}

// every walks the instances and reports whether ok held for each; it stops
// at the first one failing it.
func (h *host) every(ok func(name string, n *Node) bool) bool {
	all := true
	h.mgr.Each(func(name string, inst resource.Instance) {
		if node, isNode := inst.(*Node); isNode && all {
			all = ok(name, node)
		}
	})
	return all
}

// dump appends one line of protocol state per instance; each line is
// rendered on the owning node's loop, so it is safe under live traffic.
func (h *host) dump(b *strings.Builder) {
	h.every(func(name string, n *Node) bool {
		if name == resource.Default {
			name = "(default)"
		}
		fmt.Fprintf(b, "[%s] %s\n", name, n.Dump())
		return true
	})
}
