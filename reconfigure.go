// Online membership: the public surface of the epoch-stamped coterie
// reconfiguration protocol (internal/membership). An in-process cluster
// reconfigures itself end to end with Cluster.Reconfigure; a TCP deployment
// is driven by an operator who plans the handover once (PlanHandover) and
// applies its two phases to every process (Handover.ApplyJoint, then — after
// all sites run joint — Handover.ApplyFinal), typically through dqmd's
// /reconfigure endpoint.
package dqmx

import (
	"context"
	"fmt"

	"dqmx/internal/membership"
)

// Membership describes the target of a live reconfiguration: the cluster
// moves from its current configuration at epoch E to this one at epoch E+1
// through a joint-quorum handover, without stopping the lock service.
type Membership struct {
	// N is the target number of sites. Growing beyond the current roster
	// starts the joining sites; shrinking drains and retires the departing
	// ones (the highest IDs) after the switch.
	N int
	// Quorum is the target coterie construction. Empty keeps the cluster's
	// current construction, so a pure resize needs only N.
	Quorum Quorum
}

// Reconfigure moves the live cluster onto the target membership, advancing
// the configuration epoch by one. Mutual exclusion holds throughout: during
// the handover every new critical-section entry locks a quorum of the old
// coterie AND one of the new, so entries granted on either side of the
// switch still intersect. Acquires issued at any time — before, during,
// after — are served; shrinking waits for the departing sites to release
// what they hold.
//
// Reconfigure blocks until the switch completes or ctx is done. A
// ctx-aborted switch leaves the cluster in a safe intermediate phase and can
// be resumed by calling Reconfigure again with the same target.
func (c *Cluster) Reconfigure(ctx context.Context, target Membership) error {
	q := target.Quorum
	if q == "" {
		q = c.quorum
	}
	cons, err := q.construction()
	if err != nil {
		return err
	}
	if err := c.inner.Reconfigure(ctx, cons, target.N); err != nil {
		return fmt.Errorf("dqmx: reconfigure: %w", err)
	}
	c.quorum = q
	return nil
}

// Epoch returns the cluster's current configuration epoch: 0 at birth,
// incremented by every completed Reconfigure.
func (c *Cluster) Epoch() uint64 { return uint64(c.inner.Epoch()) }

// Reconfiguring reports whether the cluster is inside a joint-quorum
// handover phase (a Reconfigure is in flight).
func (c *Cluster) Reconfiguring() bool { return c.inner.Stage().Joint() }

// Handover is a planned reconfiguration for a TCP deployment: the per-site
// req_sets of the joint phase and the final configuration, computed once
// and applied to every process. The operator sequence is
//
//  1. start the joining sites' processes (they begin at the joint stage),
//  2. ApplyJoint on every site of the old configuration,
//  3. once every site runs the joint stage, ApplyFinal on every surviving
//     site,
//  4. stop the departing sites' processes.
//
// Safety does not depend on the operator's timing within a phase — joint
// req_sets intersect both coteries, so the cluster is safe in every
// interleaving of steps 1–2 and again in every interleaving of step 3 —
// but ApplyFinal must not start anywhere until ApplyJoint finished
// everywhere.
type Handover struct {
	inner *membership.Handover
}

// PlanHandover plans the switch from the configuration (oldN sites, oldQ
// coterie) at the given epoch to (newN, newQ) at epoch+1. The same plan must
// be distributed to all sites: quorum assignments are deterministic, so
// independently planned handovers with identical parameters agree.
func PlanHandover(epoch uint64, oldN int, oldQ Quorum, newN int, newQ Quorum) (*Handover, error) {
	oldCons, err := oldQ.construction()
	if err != nil {
		return nil, err
	}
	newCons, err := newQ.construction()
	if err != nil {
		return nil, err
	}
	oldCfg, err := membership.NewConfig(membership.Epoch(epoch), oldCons, oldN)
	if err != nil {
		return nil, fmt.Errorf("dqmx: plan handover: %w", err)
	}
	newCfg, err := membership.NewConfig(membership.Epoch(epoch)+1, newCons, newN)
	if err != nil {
		return nil, fmt.Errorf("dqmx: plan handover: %w", err)
	}
	h, err := membership.PlanHandover(oldCfg, newCfg)
	if err != nil {
		return nil, fmt.Errorf("dqmx: plan handover: %w", err)
	}
	if err := h.Validate(); err != nil {
		return nil, fmt.Errorf("dqmx: plan handover: %w", err)
	}
	return &Handover{inner: h}, nil
}

// Epoch returns the epoch the handover departs from; the final
// configuration runs at Epoch()+1.
func (h *Handover) Epoch() uint64 { return uint64(h.inner.Old.Epoch) }

// JointN returns the roster size of the joint phase — the larger of the two
// configurations (every site of either configuration is up during the
// switch).
func (h *Handover) JointN() int { return h.inner.JointN() }

// FinalN returns the roster size of the final configuration.
func (h *Handover) FinalN() int { return h.inner.New.N() }

// JointStage and FinalStage return the membership stages of the two phases,
// as stamped on the wire and reported by TCPPeer.Stage.
func (h *Handover) JointStage() uint64 { return uint64(membership.JointStage(h.inner.Old.Epoch)) }

// FinalStage returns the stable stage of the final configuration.
func (h *Handover) FinalStage() uint64 { return uint64(membership.StableStage(h.inner.New.Epoch)) }

// ApplyJoint installs the handover's joint phase on the peer hosting site
// id: every protocol instance's req_set becomes the union of its old- and
// new-coterie quorums, and outbound frames carry the joint stage.
func (h *Handover) ApplyJoint(p *TCPPeer, id SiteID) error {
	if int(id) >= h.JointN() {
		return fmt.Errorf("dqmx: apply joint: site %d is not in the joint roster (n=%d)", id, h.JointN())
	}
	return p.ApplyMembership(h.inner.JointMember(id))
}

// ApplyFinal installs the final configuration on the peer hosting site id.
// Call it only after every site of the joint roster runs the joint stage;
// sites not in the final configuration are simply stopped instead.
func (h *Handover) ApplyFinal(p *TCPPeer, id SiteID) error {
	if int(id) >= h.FinalN() {
		return fmt.Errorf("dqmx: apply final: site %d is not in the final configuration (n=%d)", id, h.FinalN())
	}
	return p.ApplyMembership(h.inner.New.Member(id))
}
