package core

import (
	"slices"

	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
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
	st := s.begin()
	if m.Stage != 0 && m.Stage == s.memberStage {
		return s.end(&st)
	}
	s.n, s.memberStage, s.memberAvoid = m.N, m.Stage, m.Avoid
	waiting := s.req.state == stateWaiting
	q := coterie.Quorum(m.Quorum).Clone()
	old := s.req.moveQuorum(q, &st)
	if slices.ContainsFunc(q, s.failedSites.has) {
		// The planned quorum names a site already known to have crashed (the
		// crash raced the reconfiguration): rebuild around it now, as the
		// failure notice would have. A waiting site contacts its unreplied
		// members through the §6 refresh (first contact for joiners,
		// idempotent for old members).
		s.rebuildQuorum(&st)
		if waiting {
			s.req.refresh(&st)
		}
	} else if waiting {
		for _, a := range q {
			if !old.Contains(a) {
				// Joining arbiter: it has never seen this request; ask it
				// with the original timestamp.
				st.send(a, requestMsg{TS: s.req.reqTS}.body())
			}
		}
	}
	// Shrinking may leave every remaining member already granted.
	s.req.checkEntry(&st)
	return s.end(&st)
}

// MembershipSettled implements mutex.Reconfigurable: false while a req_set
// swap is deferred behind a critical section still held under the previous
// quorum. The reconfiguration barrier polls every site before advancing a
// handover phase.
func (s *Site) MembershipSettled() bool { return s.req.nextQuorum == nil }
