// Package core implements the paper's contribution: a delay-optimal
// quorum-based distributed mutual exclusion algorithm. A site exiting the
// critical section forwards each arbiter's permission *directly* to the next
// requester (transfer/proxy mechanism) instead of routing it through the
// arbiter, reducing the synchronization delay from Maekawa's 2T to the
// provable minimum T while keeping the message complexity between 3(K−1) and
// 6(K−1) per CS execution (K = quorum size).
//
// Each Site is a deterministic state machine made of two halves:
//
//   - the requester (requester.go) collects permissions (reply messages)
//     from its quorum, answers inquire with yield when it cannot win, and
//     forwards permissions to transfer targets when it exits the CS; and
//   - the arbiter (arbiter.go) owns one permission (the lock), queues waiting
//     requests by Lamport priority, and directs handoffs by sending transfer
//     (with a piggybacked inquire for a higher-priority request) to the
//     current lock holder.
//
// Only the §3.1 messages cross between them: Deliver routes request, release
// and yield to the arbiter, and reply, transfer, inquire and fail to the
// requester, so the two halves of one site talk through self-addressed
// envelopes like any other pair. The site delivers those itself, inside the
// step that sent them, so no Output ever carries one: a site's grant to
// itself is local work, which is why the paper counts K−1 messages per kind.
// Neither half holds a pointer to the other or to the Site; a handler reads
// the site's identity, Lamport clock and known-failed set from the step it is
// given. Request, Exit, the §6 failure notice and SetMembership are the
// site-level calls that drive both halves.
//
// The protocol follows §3 of the paper; see DESIGN.md for the reconstruction
// decisions where the published pseudocode is ambiguous, and for the
// staleness tagging that replaces pure channel-FIFO reasoning once replies
// can arrive via proxies.
//
// Maekawa's algorithm is this machine with the arbiter's transfer and the
// holder's forwarding switched off (Handoff ViaArbiter): the request, reply,
// release, inquire, fail and yield rules are written once, here.
package core

import (
	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
)

// Site is one participant of the delay-optimal protocol. It implements
// mutex.Site and mutex.Reconfigurable, reacts to a delivered
// mutex.FailureMsg with the §6 recovery, and must be driven from a single
// goroutine.
type Site struct {
	id    mutex.SiteID
	n     int
	clock timestamp.Clock
	cons  coterie.Construction // nil disables §6 quorum reconstruction

	// failedSites is every site known to have crashed (§6).
	failedSites siteSet

	// Online membership (mutex.Reconfigurable). memberStage tags the most
	// recent SetMembership (0 = construction default); memberAvoid, when
	// non-nil, replaces cons.QuorumAvoiding for §6 rebuilds so a crash
	// during a joint handover phase is healed with a quorum that still
	// intersects both coteries.
	memberStage uint64
	memberAvoid func(down map[mutex.SiteID]bool) ([]mutex.SiteID, bool)

	req requester
	arb arbiter

	// sendBuf backs the Send of every Output this site returns: a step
	// appends into it from the start, so steady state allocates no envelope
	// slice. It is why an Output is valid only until the next call on the
	// site (mutex.Output). It is scratch, not protocol state: a clone leaves
	// it behind.
	sendBuf []mutex.Envelope
}

// step is one call on a site as a half sees it: the site's identity, its
// Lamport clock, the sites it knows to have crashed, and the Output the call
// builds. A half keeps none of it past the call.
type step struct {
	id    mutex.SiteID
	clock *timestamp.Clock
	dead  *siteSet
	out   mutex.Output
}

// send queues the message b for site to.
func (st *step) send(to mutex.SiteID, b mutex.Body) { st.out.SendBody(st.id, to, b) }

var _ mutex.Site = (*Site)(nil)

// newSite builds one site. quorum is the site's req_set; cons, when non-nil,
// enables quorum reconstruction after failures.
func newSite(id mutex.SiteID, n int, quorum coterie.Quorum, cons coterie.Construction) *Site {
	return &Site{
		id:    id,
		n:     n,
		clock: *timestamp.NewClock(id),
		cons:  cons,
		req:   requester{quorum: quorum.Clone(), state: stateIdle, reqTS: timestamp.Max},
		arb:   arbiter{lock: timestamp.Max, lastTransfer: timestamp.Max, lockVia: timestamp.None},
	}
}

// ID implements mutex.Site.
func (s *Site) ID() mutex.SiteID { return s.id }

// InCS implements mutex.Site.
func (s *Site) InCS() bool { return s.req.state == stateInCS }

// Pending implements mutex.Site.
func (s *Site) Pending() bool { return s.req.state == stateWaiting }

// Quorum returns the site's current req_set.
func (s *Site) Quorum() coterie.Quorum { return s.req.quorum.Clone() }

// begin starts one step's Output on the site's send buffer.
func (s *Site) begin() step {
	return step{id: s.id, clock: &s.clock, dead: &s.failedSites, out: mutex.Output{Send: s.sendBuf[:0]}}
}

// end finishes a step. Every envelope the step addressed to the site itself
// goes to the half that handles its kind, breadth first: what that delivery
// sends joins the end of the list and is itself delivered or kept in turn.
// The envelopes for other sites keep their order, compacted to the front of
// the buffer, which end keeps, grown or not, for the next step.
func (s *Site) end(st *step) mutex.Output {
	w := 0
	for i := 0; i < len(st.out.Send); i++ {
		if st.out.Send[i].To == s.id {
			env := st.out.Send[i] // dispatch may grow the buffer
			s.dispatch(&env, st)
			continue
		}
		if w != i {
			st.out.Send[w] = st.out.Send[i]
		}
		w++
	}
	st.out.Send = st.out.Send[:w]
	s.sendBuf = st.out.Send
	return st.out
}

// Request implements mutex.Site (step A.1).
func (s *Site) Request() mutex.Output {
	st := s.begin()
	s.req.request(&st)
	return s.end(&st)
}

// Exit implements mutex.Site (step C).
func (s *Site) Exit() mutex.Output {
	st := s.begin()
	s.req.exit(&st)
	return s.end(&st)
}

// Deliver implements mutex.Site.
func (s *Site) Deliver(env mutex.Envelope) mutex.Output {
	st := s.begin()
	s.dispatch(&env, &st)
	return s.end(&st)
}

// dispatch hands one message to the one half that handles its kind.
func (s *Site) dispatch(env *mutex.Envelope, st *step) {
	switch b := env.Body; b.Kind {
	case mutex.BodyRequest:
		s.arb.onRequest(requestOf(b), st)
	case mutex.BodyReply:
		s.req.onReply(replyOf(b), st)
	case mutex.BodyRelease:
		s.arb.onRelease(releaseOf(b), st)
	case mutex.BodyInquire:
		s.req.onInquire(inquireOf(b), st)
	case mutex.BodyFail:
		s.req.onFail(failOf(b), st)
	case mutex.BodyYield:
		s.arb.onYield(yieldOf(b), st)
	case mutex.BodyTransfer:
		s.req.onTransfer(transferOf(b), st)
	case mutex.BodyNone:
		switch m := env.Msg.(type) {
		case requestMsg: // the §6 refresh, the one shape the body cannot carry
			s.arb.onRequest(m, st)
		case mutex.FailureMsg:
			s.siteFailed(m.Failed, st)
		}
	}
}
