package membership

import (
	"fmt"

	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
)

// Handover is the plan for one reconfiguration: the old and new
// configurations plus the joint coterie in force between them. The joint
// assignment spans max(oldN, newN) sites — during the handover both the
// departing and the joining sites are live participants.
//
// Joint req_sets are unions: jointQ(i) = oldQ(mapOld(i)) ∪ newQ(mapNew(i)),
// where mapOld folds a joining site (one with no quorum of its own in the
// old coterie) onto an existing old site, and mapNew symmetrically folds a
// departing site onto a surviving new site. Every joint quorum therefore
// embeds one full quorum of each coterie, which is exactly what the safety
// argument needs — see the package comment.
type Handover struct {
	// Old and New are the two configurations; their constructions power
	// JointAvoiding (crash recovery during the handover). When either has
	// none, a crash mid-handover leaves the affected quorums unchanged
	// (safety over progress, as in §6 without a construction).
	Old, New Config
	// Joint is the handover coterie over max(oldN, newN) sites.
	Joint *coterie.Assignment
}

// PlanHandover builds the joint coterie for moving from old to new. The
// new configuration's epoch must be exactly old.Epoch+1: epochs advance one
// reconfiguration at a time so stage ordering stays dense.
func PlanHandover(old, new Config) (*Handover, error) {
	if err := old.Validate(); err != nil {
		return nil, fmt.Errorf("membership: old config: %w", err)
	}
	if err := new.Validate(); err != nil {
		return nil, fmt.Errorf("membership: new config: %w", err)
	}
	if new.Epoch != old.Epoch+1 {
		return nil, fmt.Errorf("membership: new epoch %d does not follow old epoch %d", new.Epoch, old.Epoch)
	}
	h := &Handover{Old: old, New: new}
	jointN := old.N()
	if new.N() > jointN {
		jointN = new.N()
	}
	joint := &coterie.Assignment{N: jointN, Quorums: make([]coterie.Quorum, jointN)}
	for i := 0; i < jointN; i++ {
		id := mutex.SiteID(i)
		joint.Quorums[i] = unionQuorum(
			old.Coterie.Quorum(foldSite(id, old.N())),
			new.Coterie.Quorum(foldSite(id, new.N())),
		)
	}
	h.Joint = joint
	return h, nil
}

// JointN returns the number of live sites during the handover.
func (h *Handover) JointN() int { return h.Joint.N }

// JointQuorum returns site id's req_set during the handover.
func (h *Handover) JointQuorum(id mutex.SiteID) coterie.Quorum {
	return h.Joint.Quorum(id)
}

// JointMember is what site id runs during the handover: the joint system
// size, its joint req_set, the joint §6 avoiding rule (JointAvoiding, so a
// rebuilt quorum stays joint), and the joint stage.
func (h *Handover) JointMember(id mutex.SiteID) mutex.Membership {
	return mutex.Membership{
		N:      h.JointN(),
		Quorum: h.JointQuorum(id),
		Avoid: func(down map[mutex.SiteID]bool) ([]mutex.SiteID, bool) {
			q, err := h.JointAvoiding(id, down)
			return q, err == nil
		},
		Stage: uint64(JointStage(h.Old.Epoch)),
	}
}

// Validate checks the three intersection properties the handover's safety
// rests on: every joint quorum intersects every old quorum, every new
// quorum, and every other joint quorum. All three hold by construction
// (each joint quorum embeds one quorum of each coterie); Validate proves
// it for the concrete pair rather than trusting the argument, and is what
// the reconfiguration path runs before touching any live site.
func (h *Handover) Validate() error {
	if err := h.Joint.Validate(); err != nil {
		return fmt.Errorf("membership: joint coterie: %w", err)
	}
	for i, jq := range h.Joint.Quorums {
		for o, oq := range h.Old.Coterie.Quorums {
			if !jq.Intersects(oq) {
				return fmt.Errorf("membership: joint quorum of site %d %v misses old quorum of site %d %v", i, jq, o, oq)
			}
		}
		for n, nq := range h.New.Coterie.Quorums {
			if !jq.Intersects(nq) {
				return fmt.Errorf("membership: joint quorum of site %d %v misses new quorum of site %d %v", i, jq, n, nq)
			}
		}
	}
	return nil
}

// JointAvoiding rebuilds site id's joint req_set around the crashed sites
// in down: the union of an old-coterie quorum and a new-coterie quorum,
// each avoiding the crash per the respective construction's §6 rule. Used
// by the recovery path when a site fails mid-handover, so the rebuilt
// quorum still intersects both coteries. Returns coterie.ErrNoLiveQuorum
// when either side cannot form a live quorum.
func (h *Handover) JointAvoiding(id mutex.SiteID, down map[mutex.SiteID]bool) (coterie.Quorum, error) {
	oldCons, newCons := h.Old.Construction, h.New.Construction
	if oldCons == nil || newCons == nil {
		return nil, coterie.ErrNoLiveQuorum
	}
	oldQ, err := oldCons.QuorumAvoiding(h.Old.N(), foldSite(id, h.Old.N()), down)
	if err != nil {
		return nil, err
	}
	newQ, err := newCons.QuorumAvoiding(h.New.N(), foldSite(id, h.New.N()), down)
	if err != nil {
		return nil, err
	}
	return unionQuorum(oldQ, newQ), nil
}

// foldSite maps a site ID onto the 0..n-1 range of a coterie that may not
// include it: IDs inside the range map to themselves, IDs beyond it fold
// back modulo n. This is how a joining site (no old quorum of its own)
// borrows an old-coterie quorum, and a departing site a new-coterie one.
func foldSite(id mutex.SiteID, n int) mutex.SiteID {
	if int(id) < n {
		return id
	}
	return mutex.SiteID(int(id) % n)
}

// unionQuorum merges two quorums into one sorted, duplicate-free quorum.
func unionQuorum(a, b coterie.Quorum) coterie.Quorum {
	out := make(coterie.Quorum, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
