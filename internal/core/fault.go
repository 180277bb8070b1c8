package core

import (
	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
)

// siteFailed implements the §6 recovery protocol, run when a failure(f)
// notification (mutex.FailureMsg) is delivered. The site:
//
//  1. (arbiter half) purges f's request from its queue — regranting or
//     re-arming the handoff when f was the head or the lock holder;
//  2. (requester half) voids transfers issued by or targeting f; and
//  3. when f is in its quorum and a fault-tolerant construction is
//     configured, rebuilds the quorum around the failure: arbiters leaving
//     the quorum receive a withdrawal/release, new arbiters receive the
//     original request (same timestamp, so priority is preserved).
//
// Without a construction the request simply keeps waiting — shrinking a
// quorum ad hoc would break the Intersection property and with it mutual
// exclusion.
func (s *Site) siteFailed(f mutex.SiteID, st *step) {
	if f == s.id || s.failedSites.has(f) {
		return
	}
	s.failedSites.add(f)

	s.arb.purge(f, st)
	s.req.purge(f)

	// Inside the CS the quorum the next request will use may be a deferred
	// one (a rebuild or membership swap waiting for Exit); it must avoid f
	// too.
	if s.req.quorum.Contains(f) || s.req.nextQuorum.Contains(f) {
		s.rebuildQuorum(st)
	}
	if s.req.state == stateWaiting {
		s.req.refresh(st)
	}
}

// rebuildQuorum moves the site onto a quorum that avoids all known-failed
// sites (moveQuorum). When no live quorum exists the old quorum is kept and
// the request blocks — safety over progress. Joining arbiters receive the
// original request (same timestamp) through the §6 refresh the caller runs
// after the rebuild: they are exactly the quorum members without a reply.
func (s *Site) rebuildQuorum(st *step) {
	q, ok := s.replacementQuorum()
	if !ok {
		return // no live quorum; keep waiting
	}
	s.req.moveQuorum(q, st)
	s.req.checkEntry(st)
}

// replacementQuorum picks the substitute req_set for a §6 rebuild: the
// active membership's avoiding rule when one is installed (it keeps a joint
// handover quorum joint), otherwise the construction's QuorumAvoiding.
// ok is false when no live quorum exists. Both rules take the known-failed
// sites as a map, the one the rebuild builds here.
func (s *Site) replacementQuorum() (coterie.Quorum, bool) {
	down := make(map[mutex.SiteID]bool)
	for f := range s.failedSites.all() {
		down[f] = true
	}
	if s.memberAvoid != nil {
		ids, ok := s.memberAvoid(down)
		return coterie.Quorum(ids), ok
	}
	if s.cons == nil {
		return nil, false
	}
	q, err := s.cons.QuorumAvoiding(s.n, s.id, down)
	return q, err == nil
}
