package transport

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dqmx/internal/clock"
	"dqmx/internal/coterie"
	"dqmx/internal/membership"
	"dqmx/internal/mutex"
	"dqmx/internal/resource"
)

// ErrNoMembership is returned by Reconfigure on a cluster whose algorithm
// does not expose its coterie (membership tracking needs the epoch-0
// assignment as the old side of the first handover).
var ErrNoMembership = errors.New("transport: cluster has no membership state (algorithm does not expose its coterie)")

// Reconfigure moves the live cluster onto the coterie cons builds for n
// sites, advancing the configuration epoch by one. The switch is a
// joint-quorum handover (see internal/membership):
//
//  1. Joint phase — the handover is published (new protocol instances
//     adopt joint req_sets from here on), joining sites are started so
//     their arbiters exist before traffic reaches them, and every live
//     instance's req_set becomes the union of an old- and a new-coterie
//     quorum. Any two critical-section entries keep intersecting
//     throughout, whichever side of the switch granted them.
//  2. Settle barrier — waits until no site still holds the critical
//     section under a pure old-epoch req_set (a site inside the CS defers
//     its swap until Exit).
//  3. Final phase — the new configuration is published and every surviving
//     instance's req_set becomes its pure new-coterie quorum.
//  4. Drain & retire — departing sites stop accepting acquires, finish
//     what they hold, and are then shut down and dropped from the roster.
//
// Reconfigure blocks until the switch completes or ctx is done. Returning
// with ctx's error leaves the cluster in whatever phase it reached — every
// phase is safe indefinitely (joint req_sets intersect both coteries), and
// a retry with the same target resumes the switch. Reconfigurations are
// serialized; concurrent calls queue.
func (c *Cluster) Reconfigure(ctx context.Context, cons coterie.Construction, n int) error {
	if cons == nil {
		return errors.New("transport: Reconfigure requires a coterie construction")
	}
	if n < 1 {
		return fmt.Errorf("transport: Reconfigure to %d sites", n)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	c.reconfMu.Lock()
	defer c.reconfMu.Unlock()

	c.mu.Lock()
	old := c.cfg
	var probe mutex.Site
	if set := c.siteSets[resource.Default]; len(set) > 0 {
		probe = set[0]
	}
	c.mu.Unlock()
	if old.Coterie == nil {
		return ErrNoMembership
	}
	if _, ok := probe.(mutex.Reconfigurable); !ok {
		return ErrNotReconfigurable
	}

	target, err := membership.NewConfig(old.Epoch+1, cons, n)
	if err != nil {
		return err
	}
	h, err := membership.PlanHandover(old, target)
	if err != nil {
		return err
	}
	if err := h.Validate(); err != nil {
		return err
	}

	// Phase 1: joint.
	c.mu.Lock()
	c.handover = h
	c.stage.Store(uint64(membership.JointStage(old.Epoch)))
	c.mu.Unlock()
	if h.JointN() > c.N() {
		if err := c.grow(h.JointN()); err != nil {
			return err
		}
	}
	if err := c.sweepMembership(ctx, h.JointN(), h.JointMember); err != nil {
		return err
	}

	// Phase 2: settle barrier: every instance runs on its most recently
	// installed req_set, so no critical section is still held under a
	// pre-handover quorum.
	settled := func() bool {
		return c.everyNode(0, h.JointN(), func(_ string, n *Node) bool { return n.MembershipSettled() })
	}
	if err := c.await(ctx, settled); err != nil {
		return err
	}

	// Phase 3: final.
	c.mu.Lock()
	c.cfg = target
	c.handover = nil
	c.stage.Store(uint64(membership.StableStage(target.Epoch)))
	c.mu.Unlock()
	if err := c.sweepMembership(ctx, target.N(), target.Member); err != nil {
		return err
	}

	// Phase 4: drain and retire departing sites.
	if target.N() < h.JointN() {
		if err := c.retire(ctx, target.N(), h.JointN()); err != nil {
			return err
		}
	}
	return nil
}

// grow extends the roster to `to` sites: new managers (and their eager
// default-resource nodes) are built under the published membership, then a
// new member view is swapped in. Joining sites are fully wired before any
// survivor learns of them, so their arbiters never miss traffic.
func (c *Cluster) grow(to int) error {
	view := c.members.Load()
	next := &memberView{
		managers: append(append([]*resource.Manager(nil), view.managers...), make([]*resource.Manager, to-len(view.managers))...),
		nodes:    append(append([]*Node(nil), view.nodes...), make([]*Node, to-len(view.nodes))...),
	}
	for i := len(view.managers); i < to; i++ {
		id := mutex.SiteID(i)
		// The ID may have belonged to a site retired (or crashed) under an
		// earlier configuration; the joining site starts fresh streams and is
		// no longer announced dead to instances created from here on.
		if c.rel != nil {
			c.rel.ReviveSite(id)
		}
		c.mu.Lock()
		delete(c.dead, id)
		c.mu.Unlock()
		mgr := c.newManager(id, c.policy)
		inst, err := mgr.Instance(resource.Default)
		if err != nil {
			mgr.Close()
			return fmt.Errorf("transport: start joining site %d: %w", id, err)
		}
		next.managers[i] = mgr
		next.nodes[i] = inst.(*Node)
	}
	c.members.Store(next)
	return nil
}

// sweepMembership installs each site's membership on every instantiated
// protocol instance of sites 0..count-1. Instances that closed mid-sweep (a
// crash, a racing shutdown) are skipped: a stopped machine holds no quorum.
// Instances created concurrently adopt the membership at birth via siteFor,
// so the sweep and the lazy path cannot miss between them.
func (c *Cluster) sweepMembership(ctx context.Context, count int, member func(mutex.SiteID) mutex.Membership) error {
	var err error
	c.everyNode(0, count, func(name string, node *Node) bool {
		id := node.ID()
		if e := node.Reconfigure(member(id)); e != nil && !errors.Is(e, ErrClosed) {
			err = fmt.Errorf("transport: reconfigure site %d resource %q: %w", id, name, e)
		} else {
			err = ctx.Err()
		}
		return err == nil
	})
	return err
}

// await polls cond every millisecond on the cluster's clock until it holds
// or ctx is done.
func (c *Cluster) await(ctx context.Context, cond func() bool) error {
	for !cond() {
		if !clock.Sleep(c.clock, time.Millisecond, ctx.Done()) {
			return ctx.Err()
		}
	}
	return nil
}

// everyNode walks the instantiated nodes of sites from..to-1 and reports
// whether ok held for each; it stops at the first node failing it.
func (c *Cluster) everyNode(from, to int, ok func(name string, n *Node) bool) bool {
	all := true
	for i := from; i < to && all; i++ {
		if mgr := c.manager(mutex.SiteID(i)); mgr != nil {
			mgr.Each(func(name string, inst resource.Instance) {
				if node, isNode := inst.(*Node); isNode && all {
					all = ok(name, node)
				}
			})
		}
	}
	return all
}

// retire drains and shuts down sites from..to-1: new acquires at them fail
// immediately, in-flight work completes (the §3.1 release path hands their
// locks to the next waiters), then the roster shrinks, their managers close,
// and any reliability streams they had are severed. Survivors already excluded
// them from every req_set during the final sweep.
func (c *Cluster) retire(ctx context.Context, from, to int) error {
	c.everyNode(from, to, func(_ string, n *Node) bool { n.BeginRetire(); return true })
	err := c.await(ctx, func() bool {
		if !c.everyNode(from, to, func(_ string, n *Node) bool { return n.Quiesced() }) {
			return false
		}
		// Quiesced covers the protocol machines, not the wire. A mailbox is
		// filled on the sender's goroutine, so on a plain cluster that is
		// enough; over the chaos fabric a departing site's final release or
		// transfer may still be unacknowledged in the sublayer, and severing
		// its streams would strand the lock it hands over. Wait for a drain.
		for i := from; i < to && c.rel != nil; i++ {
			if !c.rel.Drained(mutex.SiteID(i)) {
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	view := c.members.Load()
	next := &memberView{
		managers: append([]*resource.Manager(nil), view.managers[:from]...),
		nodes:    append([]*Node(nil), view.nodes[:from]...),
	}
	c.members.Store(next)
	for i := from; i < to && i < len(view.managers); i++ {
		view.managers[i].Close()
		if c.rel != nil {
			c.rel.PeerFailed(mutex.SiteID(i))
		}
	}
	return nil
}
