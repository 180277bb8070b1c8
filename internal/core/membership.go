package core

import (
	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
)

// Online membership (internal/membership): a driver moves this site between
// cluster configurations by replacing its req_set in place. The machinery
// is the §6 quorum-rebuild reconcile generalized from "avoid a crash" to
// "adopt an arbitrary new quorum": arbiters leaving the req_set receive a
// withdrawal, arbiters joining it receive the original request (same
// timestamp, so priority is preserved), and a site inside the critical
// section keeps its held quorum until Exit — the CS was granted under the
// old req_set and must be released to exactly those arbiters.

var _ mutex.Reconfigurable = (*Site)(nil)

// SetMembership implements mutex.Reconfigurable. quorum must be sorted and
// duplicate-free (membership hands out normalized quorums). avoiding, when
// non-nil, replaces the construction's QuorumAvoiding for §6 rebuilds while
// this membership is in force — during a joint handover phase the
// replacement must stay joint, which the construction alone cannot know.
func (s *Site) SetMembership(n int, quorum []mutex.SiteID, avoiding func(down map[mutex.SiteID]bool) ([]mutex.SiteID, bool), stage uint64) mutex.Output {
	out := s.begin()
	newQ := coterie.Quorum(quorum).Clone()
	old := s.quorum
	s.n = n
	s.memberStage = stage
	s.memberAvoid = avoiding

	switch s.state {
	case stateInCS:
		// Keep the held quorum for the current CS; the new req_set takes
		// effect at Exit, which releases the old members (same deferral as a
		// §6 rebuild inside the CS). It must avoid known crashes as an idle
		// site's does, or the next request waits on a dead arbiter.
		s.nextQuorum = newQ
		if f, dead := s.firstFailedIn(newQ); dead {
			s.rebuildQuorum(f, &out)
		}
		return s.end(out)
	case stateIdle:
		s.quorum = newQ
		// The planned quorum may name sites already known to have crashed
		// (the crash raced the reconfiguration): rebuild around them now, as
		// SiteFailed would have.
		if f, dead := s.firstFailedIn(newQ); dead {
			s.rebuildQuorum(f, &out)
		}
	case stateWaiting:
		s.quorum = newQ
		for _, a := range old {
			if newQ.Contains(a) || s.failedSites.has(a) {
				continue
			}
			// Leaving arbiter: withdraw our request (frees its lock or queue
			// slot) and void its transfers.
			out.SendBody(s.id, a, releaseMsg{ReqTS: s.reqTS, Fwd: timestamp.None, Withdraw: true}.body())
			s.replied.remove(a)
			s.dropTransfersFrom(a)
			s.inqDeferred.remove(a)
		}
		if f, dead := s.firstFailedIn(newQ); dead {
			// A planned member already crashed: swap onto the membership's
			// avoiding quorum and contact its unreplied members through the
			// §6 refresh, exactly as SiteFailed does (the refresh is first
			// contact for joiners and idempotent for old members).
			s.rebuildQuorum(f, &out)
			s.refreshRequests(&out)
		} else {
			for _, a := range newQ {
				if old.Contains(a) {
					continue
				}
				// Joining arbiter: it has never seen this request; ask it
				// with the original timestamp.
				out.SendBody(s.id, a, requestMsg{TS: s.reqTS}.body())
			}
		}
		// Shrinking may leave every remaining member already granted.
		s.checkEntry(&out)
	}
	return s.end(out)
}

// firstFailedIn returns the lowest known-crashed site in q, if any.
func (s *Site) firstFailedIn(q coterie.Quorum) (mutex.SiteID, bool) {
	for _, a := range q {
		if s.failedSites.has(a) {
			return a, true
		}
	}
	return 0, false
}

// MembershipSettled implements mutex.Reconfigurable: false while a req_set
// swap is deferred behind a critical section still held under the previous
// quorum. The reconfiguration barrier polls every site before advancing a
// handover phase.
func (s *Site) MembershipSettled() bool { return s.nextQuorum == nil }

// MembershipStage returns the stage tag of the most recent SetMembership
// (0 until one happens).
func (s *Site) MembershipStage() uint64 { return s.memberStage }
