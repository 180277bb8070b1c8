package transport

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

	// Phase 1: joint. Every site records its joint membership as the
	// handover is published, under the lock siteFor takes: from then on site
	// sets are built at the joint size, and no machine of that size may run
	// its construction quorum.
	c.mu.Lock()
	c.handover = h
	c.stage.Store(uint64(membership.JointStage(old.Epoch)))
	c.adopt(h.JointN(), h.JointMember)
	c.mu.Unlock()
	if h.JointN() > c.N() {
		if err := c.grow(h.JointN(), h.JointMember); err != nil {
			return err
		}
	}
	if err := c.installHosts(ctx, h.JointN(), h.JointMember); err != nil {
		return err
	}

	// Phase 2: settle barrier: every instance runs on its most recently
	// installed req_set, so no critical section is still held under a
	// pre-handover quorum. Each poll asks each site once.
	settled := func() bool {
		return c.everySite(0, h.JointN(), (*host).settled)
	}
	if err := c.await(ctx, settled); err != nil {
		return err
	}

	// Phase 3: final, recorded as it is published, as phase 1 is.
	c.mu.Lock()
	c.cfg = target
	c.handover = nil
	c.stage.Store(uint64(membership.StableStage(target.Epoch)))
	c.adopt(target.N(), target.Member)
	c.mu.Unlock()
	if err := c.installHosts(ctx, target.N(), target.Member); err != nil {
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

// grow extends the roster to `to` sites: new hosts (and their eager
// default-resource nodes) are built on member's membership, then a new
// roster is swapped in. Joining sites are fully wired before any survivor
// learns of them, so their arbiters never miss traffic.
func (c *Cluster) grow(to int, member func(mutex.SiteID) mutex.Membership) error {
	hosts := c.roster()
	// An ID may have belonged to a site retired (or crashed) under an earlier
	// configuration; the joining site starts fresh streams and is no longer
	// announced dead to instances created from here on; survivors' reliable
	// layers forget the mark on their loops, ahead of its first frame.
	for i := len(hosts); i < to; i++ {
		id := mutex.SiteID(i)
		for _, h := range hosts {
			if h.rel != nil {
				h.post(func() { h.rel.ReviveSite(id) })
			}
		}
		c.dead.revive(id)
	}
	c.joinMu.Lock()
	defer c.joinMu.Unlock()
	next := slices.Clip(hosts)
	for i := len(hosts); i < to; i++ {
		h := c.newHost(mutex.SiteID(i))
		h.adopt(member(h.self))
		if err := h.open(); err != nil {
			return fmt.Errorf("transport: start joining site %d: %w", i, err)
		}
		next = append(next, h)
	}
	c.hosts.Store(&next)
	return nil
}

// adopt records each of sites 0..count-1's membership at its host, for
// the instances built there from now on. It takes only the hosts' locks, so
// it may run under c.mu: a host's build calls siteFor before it takes its
// own lock, never while holding it.
func (c *Cluster) adopt(count int, member func(mutex.SiteID) mutex.Membership) {
	for _, h := range c.sites(0, count) {
		h.adopt(member(h.self))
	}
}

// installHosts moves the instances of sites 0..count-1 onto the membership
// adopt recorded for them (host.install, one loop item per site), checking
// ctx between sites.
func (c *Cluster) installHosts(ctx context.Context, count int, member func(mutex.SiteID) mutex.Membership) error {
	for _, h := range c.sites(0, count) {
		if err := h.install(member(h.self)); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
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

// sites is the roster slice of sites from..to-1, clipped to the roster.
func (c *Cluster) sites(from, to int) []*host {
	hosts := c.roster()
	return hosts[min(from, len(hosts)):min(to, len(hosts))]
}

// everySite reports whether ok held at each of sites from..to-1; it stops
// at the first site failing it.
func (c *Cluster) everySite(from, to int, ok func(h *host) bool) bool {
	for _, h := range c.sites(from, to) {
		if !ok(h) {
			return false
		}
	}
	return true
}

// retire drains and shuts down sites from..to-1: new acquires at them fail
// immediately, in-flight work completes (the §3.1 release path hands their
// locks to the next waiters), then the roster shrinks, their hosts close,
// and any reliability streams they had are severed. Survivors already excluded
// them from every req_set during the final sweep.
func (c *Cluster) retire(ctx context.Context, from, to int) error {
	for _, h := range c.sites(from, to) {
		h.retire()
	}
	err := c.await(ctx, func() bool {
		if !c.everySite(from, to, (*host).quiesced) {
			return false
		}
		// host.quiesced covers the protocol machines, not the wire. A
		// mailbox is filled on the sender's goroutine, so on a plain cluster
		// that is enough; over the chaos fabric a departing site's final
		// release or transfer may still be unacknowledged in its reliable
		// layer, and severing its streams would strand the lock it hands
		// over. Wait for a drain.
		return c.everySite(from, to, (*host).drained)
	})
	if err != nil {
		return err
	}
	leaving := c.sites(from, to)
	next := slices.Clone(c.sites(0, from))
	c.hosts.Store(&next)
	for _, h := range leaving {
		h.close()
		for _, s := range next {
			s.peerFailed(h.self)
		}
	}
	return nil
}
