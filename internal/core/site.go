// Package core implements the paper's contribution: a delay-optimal
// quorum-based distributed mutual exclusion algorithm. A site exiting the
// critical section forwards each arbiter's permission *directly* to the next
// requester (transfer/proxy mechanism) instead of routing it through the
// arbiter, reducing the synchronization delay from Maekawa's 2T to the
// provable minimum T while keeping the message complexity between 3(K−1) and
// 6(K−1) per CS execution (K = quorum size).
//
// Each Site is a deterministic state machine combining two halves:
//
//   - the requester half, which collects permissions (reply messages) from
//     its quorum, answers inquire messages with yield when it cannot win, and
//     forwards permissions to transfer targets when it exits the CS; and
//   - the arbiter half, which owns one permission (the lock), queues waiting
//     requests by Lamport priority, and orchestrates handoffs by sending
//     transfer (and, for higher-priority requests, piggybacked inquire)
//     messages to the current lock holder.
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
	"cmp"
	"fmt"
	"slices"

	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
)

type siteState int

const (
	stateIdle siteState = iota + 1
	stateWaiting
	stateInCS
)

func (s siteState) String() string {
	switch s {
	case stateIdle:
		return "idle"
	case stateWaiting:
		return "waiting"
	case stateInCS:
		return "in-cs"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Site is one participant of the delay-optimal protocol. It implements
// mutex.Site and mutex.Reconfigurable, reacts to a delivered
// mutex.FailureMsg with the §6 recovery, and must be driven from a single
// goroutine.
type Site struct {
	id    mutex.SiteID
	n     int
	clock timestamp.Clock
	cons  coterie.Construction // nil disables §6 quorum reconstruction

	quorum      coterie.Quorum
	nextQuorum  coterie.Quorum // replacement quorum deferred until Exit (§6)
	failedSites siteSet

	// Online membership (mutex.Reconfigurable). memberStage tags the most
	// recent SetMembership (0 = construction default); memberAvoid, when
	// non-nil, replaces cons.QuorumAvoiding for §6 rebuilds so a crash
	// during a joint handover phase is healed with a quorum that still
	// intersects both coteries.
	memberStage uint64
	memberAvoid func(down map[mutex.SiteID]bool) ([]mutex.SiteID, bool)

	// Requester half.
	state       siteState
	reqTS       timestamp.Timestamp
	replied     siteSet
	failed      bool
	inqDeferred siteSet        // arbiters with a parked inquire (inq_queue)
	tranStack   []transferInfo // tran_stack: newest last

	// pendTransfers holds the transfers that outran their proxied reply,
	// grouped by arbiter in ascending order and in arrival order within one
	// arbiter, until that arbiter's reply lands.
	pendTransfers []transferInfo

	// Arbiter half.
	lock         timestamp.Timestamp // (max,max) when unlocked
	queue        tsQueue             // req_queue
	inquired     bool                // inquire sent for the current lock generation
	lastTransfer timestamp.Timestamp // target of the latest transfer this generation

	// lockVia is the proxy whose forwarding release produced the current
	// lock value, or timestamp.None when this arbiter granted the lock
	// directly (its own reply shares the holder's channel, so FIFO keeps
	// duplicates safe). A grant that traveled through a proxy lives on a
	// channel this arbiter cannot order against; lockVia is what lets a §6
	// crash refresh decide whether that grant is provably lost.
	lockVia mutex.SiteID

	// refreshDead records, per queued request, the sites its requester has
	// declared crashed via §6 refresh resends, sorted by request and then by
	// site. When a forwarding release re-points the lock at such a request
	// and the forwarding proxy is among its claims, the proxied reply died
	// with the proxy — the arbiter re-issues the grant directly instead of
	// trusting it.
	refreshDead []refreshClaim

	// cases counts the §5.2 heavy-load case classification of arrivals.
	cases CaseStats

	// handoff is the Algorithm's hand-off path; Transfer, the zero value, is
	// the paper's. The other three are read where they differ: onTransfer
	// (LiteralTransfer drops where the default parks), ensureHandoff and
	// grantNext (StandaloneTransfer splits what the default piggybacks;
	// ViaArbiter never announces the next waiter to the holder, so its
	// tran_stack stays empty and every handover waits for the release).
	handoff Handoff

	// earlyReleases buffers releases that arrive before this arbiter has
	// learned (via the previous holder's forwarding release) that the sender
	// holds the lock. A proxied reply lets the next site acquire, execute,
	// and release within one message delay — faster than the arbiter's own
	// view can catch up — so the release is applied when the lock reaches
	// the released request. Sorted by ReqTS.
	earlyReleases []releaseMsg

	// sendBuf backs the Send of every Output this site returns: a step
	// appends into it from the start, so steady state allocates no envelope
	// slice. It is why an Output is valid only until the next call on the
	// site (mutex.Output). It is scratch, not protocol state: a clone leaves
	// it behind.
	sendBuf []mutex.Envelope
}

// refreshClaim is one entry of refreshDead: a §6 refresh of the queued
// request TS declared site Dead crashed.
type refreshClaim struct {
	TS   timestamp.Timestamp
	Dead mutex.SiteID
}

func (c refreshClaim) compare(d refreshClaim) int {
	return cmp.Or(c.TS.Compare(d.TS), cmp.Compare(c.Dead, d.Dead))
}

// byReqTS orders earlyReleases.
func byReqTS(a, b releaseMsg) int { return a.ReqTS.Compare(b.ReqTS) }

var _ mutex.Site = (*Site)(nil)

// newSite builds one site. quorum is the site's req_set; cons, when non-nil,
// enables quorum reconstruction after failures.
func newSite(id mutex.SiteID, n int, quorum coterie.Quorum, cons coterie.Construction) *Site {
	return &Site{
		id:           id,
		n:            n,
		clock:        *timestamp.NewClock(id),
		cons:         cons,
		quorum:       quorum.Clone(),
		state:        stateIdle,
		reqTS:        timestamp.Max,
		lock:         timestamp.Max,
		lastTransfer: timestamp.Max,
		lockVia:      timestamp.None,
	}
}

// ID implements mutex.Site.
func (s *Site) ID() mutex.SiteID { return s.id }

// InCS implements mutex.Site.
func (s *Site) InCS() bool { return s.state == stateInCS }

// Pending implements mutex.Site.
func (s *Site) Pending() bool { return s.state == stateWaiting }

// Quorum returns the site's current req_set.
func (s *Site) Quorum() coterie.Quorum { return s.quorum.Clone() }

// begin starts one step's Output on the site's send buffer; end keeps the
// buffer, grown or not, for the next step.
func (s *Site) begin() mutex.Output { return mutex.Output{Send: s.sendBuf[:0]} }

func (s *Site) end(out mutex.Output) mutex.Output {
	s.sendBuf = out.Send
	return out
}

// Request implements mutex.Site (step A.1): timestamp the request, reset the
// requester state, and ask every quorum member for permission.
func (s *Site) Request() mutex.Output {
	out := s.begin()
	if s.state != stateIdle {
		return out
	}
	s.state = stateWaiting
	s.reqTS = s.clock.Tick()
	s.failed = false
	req := requestMsg{TS: s.reqTS}.body()
	for _, j := range s.quorum {
		out.SendBody(s.id, j, req)
	}
	return s.end(out)
}

// Exit implements mutex.Site (step C): forward each arbiter's permission to
// the newest transfer target from that arbiter, then notify every quorum
// member with a release carrying the forwarding decision.
func (s *Site) Exit() mutex.Output {
	out := s.begin()
	if s.state != stateInCS {
		return out
	}
	myTS := s.reqTS
	var served siteSet // tran_set
	for k := len(s.tranStack) - 1; k >= 0; k-- {
		e := s.tranStack[k]
		if served.has(e.Arbiter) {
			continue // older transfer from the same arbiter is void
		}
		served.add(e.Arbiter)
		out.SendBody(s.id, e.TargetTS.Site, replyMsg{Arbiter: e.Arbiter, ReqTS: e.TargetTS}.body())
	}
	for _, j := range s.quorum {
		rel := releaseMsg{ReqTS: myTS, Fwd: timestamp.None}
		for k := len(s.tranStack) - 1; k >= 0; k-- {
			if ts := s.tranStack[k].TargetTS; s.tranStack[k].Arbiter == j {
				rel.Fwd, rel.FwdTS = ts.Site, ts // the newest transfer from j
				break
			}
		}
		out.SendBody(s.id, j, rel.body())
	}
	s.resetRequester()
	return s.end(out)
}

func (s *Site) resetRequester() {
	if s.nextQuorum != nil {
		s.quorum = s.nextQuorum
		s.nextQuorum = nil
	}
	s.state = stateIdle
	s.reqTS = timestamp.Max
	s.replied.clear()
	s.failed = false
	s.inqDeferred.clear()
	s.tranStack = s.tranStack[:0]
	s.pendTransfers = s.pendTransfers[:0]
}

// parked returns the bounds [i, j) of arb's transfers in pendTransfers.
func (s *Site) parked(arb mutex.SiteID) (int, int) {
	i := 0
	for i < len(s.pendTransfers) && s.pendTransfers[i].Arbiter < arb {
		i++
	}
	j := i
	for j < len(s.pendTransfers) && s.pendTransfers[j].Arbiter == arb {
		j++
	}
	return i, j
}

// unpark discards the transfers parked for arb.
func (s *Site) unpark(arb mutex.SiteID) {
	i, j := s.parked(arb)
	s.pendTransfers = slices.Delete(s.pendTransfers, i, j)
}

// Deliver implements mutex.Site.
func (s *Site) Deliver(env mutex.Envelope) mutex.Output {
	out := s.begin()
	switch b := env.Body; b.Kind {
	case mutex.BodyRequest:
		s.onRequest(requestOf(b), &out)
	case mutex.BodyReply:
		s.onReply(replyOf(b), &out)
	case mutex.BodyRelease:
		s.onRelease(releaseOf(b), &out)
	case mutex.BodyInquire:
		s.onInquire(inquireOf(b), &out)
	case mutex.BodyFail:
		s.onFail(failOf(b), &out)
	case mutex.BodyYield:
		s.onYield(yieldOf(b), &out)
	case mutex.BodyTransfer:
		s.onTransfer(transferOf(b), &out)
	case mutex.BodyNone:
		switch m := env.Msg.(type) {
		case requestMsg: // the §6 refresh, the one shape the body cannot carry
			s.onRequest(m, &out)
		case mutex.FailureMsg:
			s.siteFailed(m.Failed, &out)
		}
	}
	return s.end(out)
}

// --- Arbiter half -----------------------------------------------------------

func (s *Site) resetLockGen() {
	s.inquired = false
	s.lastTransfer = timestamp.Max
	s.lockVia = timestamp.None
}

// markRefresh accumulates the known-dead claims of a §6 refresh against its
// queued request, consulted when a forwarding release later re-points the
// lock at it.
func (s *Site) markRefresh(m requestMsg) {
	for _, f := range m.Dead {
		s.refreshDead = upsert(s.refreshDead, refreshClaim{TS: m.TS, Dead: f}, refreshClaim.compare)
	}
}

// refreshClaims reports whether a refresh of the queued request ts declared
// site f crashed.
func (s *Site) refreshClaims(ts timestamp.Timestamp, f mutex.SiteID) bool {
	_, found := slices.BinarySearchFunc(s.refreshDead, refreshClaim{TS: ts, Dead: f}, refreshClaim.compare)
	return found
}

func (s *Site) clearRefresh(ts timestamp.Timestamp) {
	s.refreshDead = slices.DeleteFunc(s.refreshDead, func(c refreshClaim) bool { return c.TS == ts })
}

func (s *Site) clearRefreshSite(f mutex.SiteID) {
	s.refreshDead = slices.DeleteFunc(s.refreshDead, func(c refreshClaim) bool { return c.TS.Site == f })
}

// takeEarly removes and returns the buffered early release of ts, if any.
func (s *Site) takeEarly(ts timestamp.Timestamp) (releaseMsg, bool) {
	i, ok := slices.BinarySearchFunc(s.earlyReleases, releaseMsg{ReqTS: ts}, byReqTS)
	if !ok {
		return releaseMsg{}, false
	}
	rel := s.earlyReleases[i]
	s.earlyReleases = slices.Delete(s.earlyReleases, i, i+1)
	return rel, true
}

// onRequest handles step A.2. The published case analysis collapses to three
// rules once the queue is updated first:
//
//   - the new request is not the highest-priority waiter → fail it;
//   - it displaced the previous highest waiter → fail the displaced one;
//   - the highest waiter changed → (re)arm the handoff: send transfer to the
//     lock holder, piggybacking inquire when the waiter outranks the holder.
func (s *Site) onRequest(m requestMsg, out *mutex.Output) {
	s.clock.Witness(m.TS)
	if s.failedSites.has(m.TS.Site) {
		return // request from a site already announced as crashed
	}
	if s.lock == m.TS {
		// Crash refresh (§6): the requester still lacks our grant. Re-issue
		// it only when the duplicate is provably safe: a directly-granted
		// (or self-proxied) reply travels the same channel as this re-issue
		// and any later inquire, so FIFO lets one yield cover both copies;
		// a grant forwarded by a proxy the refresh declares dead died in the
		// severed channel. A grant in a *live* proxy's custody may still
		// arrive — re-issuing would let a yield straddle the two copies and
		// double-grant the permission, so the refresh waits for either the
		// proxied reply or the proxy's failure notification.
		if s.lockVia == timestamp.None || s.lockVia == s.id || m.claimsDead(s.lockVia) {
			out.SendBody(s.id, m.TS.Site, replyMsg{Arbiter: s.id, ReqTS: m.TS}.body())
		}
		return
	}
	if s.queue.Contains(m.TS) {
		// Crash refresh of a request we already queue: the verdict stands,
		// but remember the requester's dead-set — a forwarding release may
		// yet re-point the lock here trusting a proxied reply that died.
		s.markRefresh(m)
		return
	}
	if s.lock.IsMax() {
		s.lock = m.TS
		s.resetLockGen()
		out.SendBody(s.id, m.TS.Site, replyMsg{Arbiter: s.id, ReqTS: m.TS}.body())
		return
	}
	oldHead := timestamp.Max
	if !s.queue.Empty() {
		oldHead = s.queue.Head()
	}
	s.classify(m.TS, oldHead)
	s.queue.Push(m.TS)
	s.markRefresh(m)
	head := s.queue.Head()
	// A request learns it is currently losing (failed = 1) unless it is the
	// unique winner here: first in line AND higher priority than the lock
	// holder. This is what lets inquire chains terminate in a yield — the
	// §5.2 Case 1 fail that the published pseudocode omits.
	if head != m.TS || !m.TS.Less(s.lock) {
		out.SendBody(s.id, m.TS.Site, failMsg{Arbiter: s.id, ReqTS: m.TS}.body())
	}
	// A displaced head that was winning has not seen a fail yet; tell it.
	if head == m.TS && !oldHead.IsMax() && oldHead.Less(s.lock) {
		out.SendBody(s.id, oldHead.Site, failMsg{Arbiter: s.id, ReqTS: oldHead}.body())
	}
	s.ensureHandoff(out)
}

// ensureHandoff keeps the invariant that the current lock holder knows about
// the highest-priority waiter: it sends a transfer for the head (once per
// head per lock generation) and piggybacks an inquire when the head
// outranks the holder (once per lock generation).
func (s *Site) ensureHandoff(out *mutex.Output) {
	if s.lock.IsMax() || s.queue.Empty() {
		return
	}
	head := s.queue.Head()
	needInquire := head.Less(s.lock) && !s.inquired
	if s.handoff == ViaArbiter {
		// Preemption must still work — a higher-priority waiter recalls the
		// permission via inquire/yield — but the holder is never told whom to
		// forward to, so the handover itself waits for the release.
		if needInquire {
			out.SendBody(s.id, s.lock.Site, inquireMsg{Arbiter: s.id, HolderTS: s.lock}.body())
			s.inquired = true
		}
		return
	}
	needTransfer := head != s.lastTransfer
	standalone := s.handoff == StandaloneTransfer
	switch {
	case needTransfer:
		s.lastTransfer = head
		out.SendBody(s.id, s.lock.Site, transferMsg{
			Transfer: transferInfo{Arbiter: s.id, TargetTS: head},
			HolderTS: s.lock,
			Inquire:  needInquire && !standalone,
		}.body())
		if needInquire && standalone {
			out.SendBody(s.id, s.lock.Site, inquireMsg{Arbiter: s.id, HolderTS: s.lock}.body())
		}
	case needInquire:
		out.SendBody(s.id, s.lock.Site, inquireMsg{Arbiter: s.id, HolderTS: s.lock}.body())
	default:
		return
	}
	if needInquire {
		s.inquired = true
	}
}

// onYield handles step A.4: the holder returned the permission; grant the
// highest-priority request (which includes the re-enqueued yielder) and tell
// the new holder about the next waiter in the same message.
func (s *Site) onYield(m yieldMsg, out *mutex.Output) {
	if s.lock != m.ReqTS {
		return // stale yield (lock moved on)
	}
	s.queue.Push(m.ReqTS)
	s.grantNext(out)
}

// grantNext pops the highest-priority waiting request, grants it directly,
// and piggybacks a transfer for the next waiter when one exists. The queue
// must not be empty. If the popped request already released early (possible
// only after crash-induced chain breaks), the release is applied instead of
// granting.
func (s *Site) grantNext(out *mutex.Output) {
	grant := s.queue.Pop()
	s.clearRefresh(grant) // the direct reply below supersedes any refresh claim
	s.lock = grant
	s.resetLockGen()
	if rel, ok := s.takeEarly(grant); ok {
		s.applyRelease(rel, out)
		return
	}
	reply := replyMsg{Arbiter: s.id, ReqTS: grant}
	var follow *transferMsg
	if !s.queue.Empty() && s.handoff != ViaArbiter {
		head := s.queue.Head()
		ti := transferInfo{Arbiter: s.id, TargetTS: head}
		if s.handoff != StandaloneTransfer {
			reply.Transfer = &ti
		} else {
			follow = &transferMsg{Transfer: ti, HolderTS: grant}
		}
		s.lastTransfer = head
	}
	out.SendBody(s.id, grant.Site, reply.body())
	if follow != nil {
		out.SendBody(s.id, grant.Site, follow.body())
	}
}

// onRelease handles step C's arrival at the arbiter. With a forward the lock
// is re-pointed at the forwarded request; without one the next waiter is
// granted directly (the 2T fallback path). A release whose request is only
// queued acts as a withdrawal (§6 recovery); a release whose request the
// arbiter does not yet consider the holder is buffered and applied when the
// lock catches up.
func (s *Site) onRelease(m releaseMsg, out *mutex.Output) {
	if s.lock == m.ReqTS {
		s.applyRelease(m, out)
		return
	}
	if m.Withdraw {
		if s.queue.Remove(m.ReqTS) {
			s.clearRefresh(m.ReqTS)
			s.ensureHandoff(out)
		}
		return
	}
	// Early release: the holder-to-holder chain outran this arbiter's view.
	s.earlyReleases = upsert(s.earlyReleases, m, byReqTS)
}

// applyRelease performs the release of the current lock holder's request.
func (s *Site) applyRelease(m releaseMsg, out *mutex.Output) {
	if m.Fwd != timestamp.None && !s.failedSites.has(m.Fwd) {
		removed := s.queue.Remove(m.FwdTS)
		_, early := slices.BinarySearchFunc(s.earlyReleases, releaseMsg{ReqTS: m.FwdTS}, byReqTS)
		if removed || early {
			// The forwarding proxy is the releasing holder itself. If a §6
			// refresh from the target declared that proxy dead, the proxied
			// reply died in the severed proxy→target channel — re-issue it.
			reissue := s.refreshClaims(m.FwdTS, m.ReqTS.Site)
			s.clearRefresh(m.FwdTS)
			s.setLock(m.FwdTS, m.ReqTS.Site, reissue, out)
			return
		}
		// The forwarded request is neither queued nor released-ahead: it
		// withdrew from this arbiter (a §6 rebuild or a membership swap)
		// after the transfer naming it was issued, so it will never send the
		// release that clears a re-pointed lock. The permission returns to
		// the pool as a plain release instead.
		s.clearRefresh(m.FwdTS)
	}
	if s.queue.Empty() {
		s.lock = timestamp.Max
		s.resetLockGen()
		return
	}
	s.grantNext(out)
}

// setLock re-points the lock at a request that obtained the permission via
// the proxy via, draining any buffered early release for it (handoff chains
// can run several CS executions ahead of the arbiter's view). Otherwise it
// re-arms the handoff toward the new holder — a higher-priority request may
// have arrived while the forwarding release was in flight. With reissue set
// the proxied reply is known lost: a direct replacement grant is sent, before
// ensureHandoff so channel FIFO orders it ahead of any inquire for this lock
// generation (a yield prompted by that inquire then covers the grant).
func (s *Site) setLock(ts timestamp.Timestamp, via mutex.SiteID, reissue bool, out *mutex.Output) {
	s.lock = ts
	s.resetLockGen()
	s.lockVia = via
	if rel, ok := s.takeEarly(ts); ok {
		s.applyRelease(rel, out)
		return
	}
	if reissue {
		out.SendBody(s.id, ts.Site, replyMsg{Arbiter: s.id, ReqTS: ts}.body())
	}
	s.ensureHandoff(out)
}

// --- Requester half ----------------------------------------------------------

// onReply handles step A.6. Replies for other sessions — possible only
// during §6 recovery races — are declined so the arbiter is never wedged on
// a grant nobody claims.
func (s *Site) onReply(m replyMsg, out *mutex.Output) {
	if s.state == stateInCS && m.ReqTS == s.reqTS {
		// A crash-refresh duplicate of a permission we already hold raced our
		// entry: ignore it — the Exit release (or the withdrawal already
		// consumed, if the arbiter left our quorum) settles the arbiter.
		// Declining would bounce a release that regrants a permission in use.
		return
	}
	if s.state != stateWaiting || m.ReqTS != s.reqTS || !s.quorum.Contains(m.Arbiter) {
		s.decline(m, out)
		return
	}
	s.replied.add(m.Arbiter)
	if m.Transfer != nil {
		s.acceptTransfer(*m.Transfer, out)
	}
	i, j := s.parked(m.Arbiter)
	for _, ti := range s.pendTransfers[i:j] {
		s.acceptTransfer(ti, out)
	}
	s.pendTransfers = slices.Delete(s.pendTransfers, i, j)
	if s.inqDeferred.has(m.Arbiter) && s.failed {
		s.yieldTo(m.Arbiter, out)
	}
	s.checkEntry(out)
}

// decline bounces an unclaimable grant back to the arbiter as a release so
// the permission is not lost. Unreachable in failure-free runs.
func (s *Site) decline(m replyMsg, out *mutex.Output) {
	out.SendBody(s.id, m.Arbiter, releaseMsg{ReqTS: m.ReqTS, Fwd: timestamp.None}.body())
}

// acceptTransfer implements step A.5 for a transfer whose arbiter has
// already granted us (replied = 1).
func (s *Site) acceptTransfer(ti transferInfo, _ *mutex.Output) {
	if s.failedSites.has(ti.TargetTS.Site) {
		return // never forward a permission to a crashed site
	}
	s.tranStack = append(s.tranStack, ti)
}

// onTransfer handles a standalone (or inquire-piggybacked) transfer from an
// arbiter. A transfer for a different session is stale and dropped; a
// transfer for the current session that outran its proxied reply is parked
// and replayed when the reply lands.
func (s *Site) onTransfer(m transferMsg, out *mutex.Output) {
	if s.state == stateIdle || m.HolderTS != s.reqTS {
		return
	}
	arb := m.Transfer.Arbiter
	if s.replied.has(arb) {
		s.acceptTransfer(m.Transfer, out)
	} else if s.handoff != LiteralTransfer {
		_, j := s.parked(arb)
		s.pendTransfers = slices.Insert(s.pendTransfers, j, m.Transfer)
	}
	if m.Inquire {
		s.handleInquire(arb, out)
	}
}

// onInquire handles step A.3's arrival.
func (s *Site) onInquire(m inquireMsg, out *mutex.Output) {
	if s.state == stateIdle || m.HolderTS != s.reqTS {
		return // arrived after our release; ignore
	}
	s.handleInquire(m.Arbiter, out)
}

// handleInquire applies A.3: yield only when this site has the permission
// but cannot win (failed = 1); otherwise park the inquire for re-evaluation
// on the next reply or fail. Inside the CS the inquire needs no answer — the
// release at exit supersedes it.
func (s *Site) handleInquire(arb mutex.SiteID, out *mutex.Output) {
	if s.state == stateInCS {
		return
	}
	if s.replied.has(arb) && s.failed {
		s.yieldTo(arb, out)
		return
	}
	s.inqDeferred.add(arb)
}

// yieldTo relinquishes arb's permission: transfers from arb become void and
// the permission is returned for re-granting.
func (s *Site) yieldTo(arb mutex.SiteID, out *mutex.Output) {
	s.replied.remove(arb)
	s.failed = true
	s.dropTransfersFrom(arb)
	s.inqDeferred.remove(arb)
	out.SendBody(s.id, arb, yieldMsg{ReqTS: s.reqTS}.body())
}

func (s *Site) dropTransfersFrom(arb mutex.SiteID) {
	s.tranStack = slices.DeleteFunc(s.tranStack, func(e transferInfo) bool { return e.Arbiter == arb })
	s.unpark(arb)
}

// onFail handles step A.7: remember the refusal and re-evaluate every parked
// inquire — any permission we hold is now yieldable.
func (s *Site) onFail(m failMsg, out *mutex.Output) {
	if s.state != stateWaiting || m.ReqTS != s.reqTS {
		return
	}
	s.failed = true
	for arb := range s.inqDeferred.all() {
		if s.replied.has(arb) {
			s.yieldTo(arb, out)
		}
	}
}

// checkEntry performs step B: enter the CS once every quorum member has
// granted. Parked inquires are dropped — the release at exit answers them.
func (s *Site) checkEntry(out *mutex.Output) {
	if s.state != stateWaiting {
		return
	}
	for _, j := range s.quorum {
		if !s.replied.has(j) {
			return
		}
	}
	s.state = stateInCS
	s.inqDeferred.clear()
	out.Entered = true
}
