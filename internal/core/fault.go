package core

import (
	"slices"

	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
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
func (s *Site) siteFailed(f mutex.SiteID, out *mutex.Output) {
	if f == s.id || s.failedSites.has(f) {
		return
	}
	s.failedSites.add(f)

	s.arbiterPurge(f, out)
	s.requesterPurge(f, out)

	// Inside the CS the quorum the next request will use may be a deferred
	// one (a rebuild or membership swap waiting for Exit); it must avoid f
	// too.
	if s.quorum.Contains(f) || s.nextQuorum.Contains(f) {
		s.rebuildQuorum(out)
	}
	if s.state == stateWaiting {
		s.refreshRequests(out)
	}
}

// refreshRequests re-sends the pending request to every quorum arbiter that
// has not granted it. The crashed site may have been the proxy carrying an
// arbiter's grant to us — the forwarded reply dying with it while the release
// that re-pointed the arbiter's lock survived — and we cannot tell which
// grants were in a dead proxy's custody. The refresh carries every site we
// know to have crashed: because the transport severs a dead peer's streams
// before announcing the crash, any grant proxied by a site in that set is
// provably undeliverable, and the arbiter may re-issue it — immediately when
// its lock already points at this request, or when a forwarding release
// later re-points it here (the refresh-before-release race; the arbiter
// remembers the dead-set against the queued entry). Grants in a live proxy's
// custody are left alone: the refresh arriving does not prove them lost, and
// re-issuing could double-grant across a yield. If that proxy later crashes,
// the next refresh claims it and heals the gap.
func (s *Site) refreshRequests(out *mutex.Output) {
	dead := slices.Collect(s.failedSites.all())
	for _, a := range s.quorum {
		if s.replied.has(a) || s.failedSites.has(a) {
			continue
		}
		out.SendTo(s.id, a, requestMsg{TS: s.reqTS, Refresh: true, Dead: dead})
	}
}

// arbiterPurge removes every trace of the failed site from the arbiter half
// (the paper's Cases 1 and 3 of the recovery actions).
func (s *Site) arbiterPurge(f mutex.SiteID, out *mutex.Output) {
	s.queue.RemoveSite(f)
	s.clearRefreshSite(f)
	if !s.lock.IsMax() && s.lock.Site == f {
		// The failed site held our permission: grant the next request
		// directly, piggybacking a transfer for the one after it.
		if s.queue.Empty() {
			s.lock = timestamp.Max
			s.resetLockGen()
		} else {
			s.grantNext(out)
		}
		return
	}
	// The head may have changed; make sure the holder learns the new head.
	s.ensureHandoff(out)
}

// requesterPurge voids state that references the failed site (Case 2).
func (s *Site) requesterPurge(f mutex.SiteID, _ *mutex.Output) {
	if s.state == stateIdle {
		return
	}
	s.tranStack = slices.DeleteFunc(s.tranStack, func(e transferInfo) bool {
		return e.Arbiter == f || e.TargetTS.Site == f
	})
	s.unpark(f)
	s.inqDeferred.remove(f)
}

// rebuildQuorum moves the site onto a quorum that avoids all known-failed
// sites (moveQuorum). When no live quorum exists the old quorum is kept and
// the request blocks — safety over progress. Joining arbiters receive the
// original request (same timestamp) through the §6 refresh the caller runs
// after the rebuild: they are exactly the quorum members without a reply.
func (s *Site) rebuildQuorum(out *mutex.Output) {
	q, ok := s.replacementQuorum()
	if !ok {
		return // no live quorum; keep waiting
	}
	s.moveQuorum(q, out)
	s.checkEntry(out)
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
		if !ok {
			return nil, false
		}
		return coterie.Quorum(ids), true
	}
	if s.cons == nil {
		return nil, false
	}
	q, err := s.cons.QuorumAvoiding(s.n, s.id, down)
	if err != nil {
		return nil, false
	}
	return q, true
}
