package core

import (
	"slices"

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

// SetMembership implements mutex.Reconfigurable. m.Quorum must be sorted
// and duplicate-free (membership hands out normalized quorums). m.Avoid,
// when non-nil, replaces the construction's QuorumAvoiding for §6 rebuilds
// while this membership is in force — during a joint handover phase the
// replacement must stay joint, which the construction alone cannot know.
func (s *Site) SetMembership(m mutex.Membership) mutex.Output {
	out := s.begin()
	if m.Stage != 0 && m.Stage == s.memberStage {
		return s.end(out)
	}
	s.n, s.memberStage, s.memberAvoid = m.N, m.Stage, m.Avoid
	waiting := s.state == stateWaiting
	q := coterie.Quorum(m.Quorum).Clone()
	old := s.moveQuorum(q, &out)
	if s.namesFailed(q) {
		// The planned quorum names a site already known to have crashed (the
		// crash raced the reconfiguration): rebuild around it now, as the
		// failure notice would have. A waiting site contacts its unreplied
		// members through the §6 refresh (first contact for joiners,
		// idempotent for old members).
		s.rebuildQuorum(&out)
		if waiting {
			s.refreshRequests(&out)
		}
	} else if waiting {
		for _, a := range q {
			if !old.Contains(a) {
				// Joining arbiter: it has never seen this request; ask it
				// with the original timestamp.
				out.SendBody(s.id, a, requestMsg{TS: s.reqTS}.body())
			}
		}
	}
	// Shrinking may leave every remaining member already granted.
	s.checkEntry(&out)
	return s.end(out)
}

// moveQuorum is the one req_set move that §6 rebuilds and membership swaps
// share. Inside the CS the held quorum stays until Exit, which releases
// exactly the arbiters that granted it, and q waits in nextQuorum; an idle
// site swaps; a waiting site swaps and withdraws its request from the
// arbiters that left (freeing their lock or queue slot and voiding their
// transfers). It returns the req_set the site ran before. Contacting the
// arbiters that joined is the caller's: a plain request after a membership
// swap, the §6 refresh after a rebuild.
func (s *Site) moveQuorum(q coterie.Quorum, out *mutex.Output) (old coterie.Quorum) {
	old = s.quorum
	switch s.state {
	case stateInCS:
		s.nextQuorum = q
		return old
	case stateIdle:
		s.quorum = q
		return old
	}
	s.quorum = q
	for _, a := range old {
		if q.Contains(a) || s.failedSites.has(a) {
			continue
		}
		out.SendBody(s.id, a, releaseMsg{ReqTS: s.reqTS, Fwd: timestamp.None, Withdraw: true}.body())
		s.replied.remove(a)
		s.dropTransfersFrom(a)
		s.inqDeferred.remove(a)
	}
	return old
}

// namesFailed reports whether q contains a known-crashed site.
func (s *Site) namesFailed(q coterie.Quorum) bool {
	return slices.ContainsFunc(q, s.failedSites.has)
}

// MembershipSettled implements mutex.Reconfigurable: false while a req_set
// swap is deferred behind a critical section still held under the previous
// quorum. The reconfiguration barrier polls every site before advancing a
// handover phase.
func (s *Site) MembershipSettled() bool { return s.nextQuorum == nil }
