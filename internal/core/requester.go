package core

import (
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

// requester is the half of a site that asks for the critical section: it
// collects its quorum's permissions, yields one back when it cannot win,
// enters once every member has granted, and at exit forwards each permission
// to the transfer target its arbiter named. It handles reply (A.6), transfer
// (A.5), inquire (A.3) and fail (A.7), and the §6 purge and refresh.
type requester struct {
	quorum     coterie.Quorum
	nextQuorum coterie.Quorum // replacement quorum deferred until Exit (§6)

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
}

// request performs step A.1 at an idle site: timestamp a new request, reset
// the requester state, and ask every quorum member for permission.
func (r *requester) request(st *step) {
	if r.state != stateIdle {
		return
	}
	r.state = stateWaiting
	r.reqTS = st.clock.Tick()
	r.failed = false
	req := requestMsg{TS: r.reqTS}.body()
	for _, j := range r.quorum {
		st.send(j, req)
	}
}

// exit performs step C: forward each arbiter's permission to the newest
// transfer target from that arbiter, then notify every quorum member with a
// release carrying the forwarding decision. A permission whose target is its
// arbiter's own site is not forwarded: the release(fwd) to that arbiter is
// the one message it needs, and the arbiter grants its own site itself.
func (r *requester) exit(st *step) {
	if r.state != stateInCS {
		return
	}
	var served siteSet // tran_set
	for k := len(r.tranStack) - 1; k >= 0; k-- {
		e := r.tranStack[k]
		if served.has(e.Arbiter) {
			continue // older transfer from the same arbiter is void
		}
		served.add(e.Arbiter)
		if e.TargetTS.Site != e.Arbiter {
			st.send(e.TargetTS.Site, replyMsg{Arbiter: e.Arbiter, ReqTS: e.TargetTS}.body())
		}
	}
	for _, j := range r.quorum {
		rel := releaseMsg{ReqTS: r.reqTS, Fwd: timestamp.None}
		for k := len(r.tranStack) - 1; k >= 0; k-- {
			if ts := r.tranStack[k].TargetTS; r.tranStack[k].Arbiter == j {
				rel.Fwd, rel.FwdTS = ts.Site, ts // the newest transfer from j
				break
			}
		}
		st.send(j, rel.body())
	}
	if r.nextQuorum != nil {
		r.quorum = r.nextQuorum
		r.nextQuorum = nil
	}
	r.state = stateIdle
	r.reqTS = timestamp.Max
	r.replied.clear()
	r.failed = false
	r.inqDeferred.clear()
	r.tranStack = r.tranStack[:0]
	r.pendTransfers = r.pendTransfers[:0]
}

// parked returns the bounds [i, j) of arb's transfers in pendTransfers.
func (r *requester) parked(arb mutex.SiteID) (int, int) {
	i := 0
	for i < len(r.pendTransfers) && r.pendTransfers[i].Arbiter < arb {
		i++
	}
	j := i
	for j < len(r.pendTransfers) && r.pendTransfers[j].Arbiter == arb {
		j++
	}
	return i, j
}

// onReply handles step A.6. Replies for other sessions — possible only
// during §6 recovery races — are declined so the arbiter is never wedged on
// a grant nobody claims.
func (r *requester) onReply(m replyMsg, st *step) {
	if r.state == stateInCS && m.ReqTS == r.reqTS {
		// A crash-refresh duplicate of a permission we already hold raced our
		// entry: ignore it — the Exit release (or the withdrawal already
		// consumed, if the arbiter left our quorum) settles the arbiter.
		// Declining would bounce a release that regrants a permission in use.
		return
	}
	if r.state != stateWaiting || m.ReqTS != r.reqTS || !r.quorum.Contains(m.Arbiter) {
		// Bounce the unclaimable grant back to the arbiter as a release so
		// the permission is not lost. Unreachable in failure-free runs.
		st.send(m.Arbiter, releaseMsg{ReqTS: m.ReqTS, Fwd: timestamp.None}.body())
		return
	}
	r.replied.add(m.Arbiter)
	if m.Transfer != nil {
		r.acceptTransfer(*m.Transfer, st)
	}
	i, j := r.parked(m.Arbiter)
	for _, ti := range r.pendTransfers[i:j] {
		r.acceptTransfer(ti, st)
	}
	r.pendTransfers = slices.Delete(r.pendTransfers, i, j)
	if r.inqDeferred.has(m.Arbiter) && r.failed {
		r.yieldTo(m.Arbiter, st)
	}
	r.checkEntry(st)
}

// acceptTransfer implements step A.5 for a transfer whose arbiter has
// already granted us (replied = 1).
func (r *requester) acceptTransfer(ti transferInfo, st *step) {
	if st.dead.has(ti.TargetTS.Site) {
		return // never forward a permission to a crashed site
	}
	r.tranStack = append(r.tranStack, ti)
}

// onTransfer handles a standalone (or inquire-piggybacked) transfer from an
// arbiter. A transfer for a different session is stale and dropped; a
// transfer for the current session that outran its proxied reply is parked
// and replayed when the reply lands.
func (r *requester) onTransfer(m transferMsg, st *step) {
	if r.state == stateIdle || m.HolderTS != r.reqTS {
		return
	}
	arb := m.Transfer.Arbiter
	if r.replied.has(arb) {
		r.acceptTransfer(m.Transfer, st)
	} else {
		_, j := r.parked(arb)
		r.pendTransfers = slices.Insert(r.pendTransfers, j, m.Transfer)
	}
	if m.Inquire {
		r.handleInquire(arb, st)
	}
}

// onInquire handles step A.3's arrival.
func (r *requester) onInquire(m inquireMsg, st *step) {
	if r.state == stateIdle || m.HolderTS != r.reqTS {
		return // arrived after our release; ignore
	}
	r.handleInquire(m.Arbiter, st)
}

// handleInquire applies A.3: yield only when this site has the permission
// but cannot win (failed = 1); otherwise park the inquire for re-evaluation
// on the next reply or fail. Inside the CS the inquire needs no answer — the
// release at exit supersedes it.
func (r *requester) handleInquire(arb mutex.SiteID, st *step) {
	if r.state == stateInCS {
		return
	}
	if r.replied.has(arb) && r.failed {
		r.yieldTo(arb, st)
		return
	}
	r.inqDeferred.add(arb)
}

// yieldTo relinquishes arb's permission: transfers from arb become void and
// the permission is returned for re-granting.
func (r *requester) yieldTo(arb mutex.SiteID, st *step) {
	r.replied.remove(arb)
	r.failed = true
	r.dropTransfersFrom(arb)
	r.inqDeferred.remove(arb)
	st.send(arb, yieldMsg{ReqTS: r.reqTS}.body())
}

// dropTransfersFrom voids arb's transfers, stacked or parked.
func (r *requester) dropTransfersFrom(arb mutex.SiteID) {
	r.tranStack = slices.DeleteFunc(r.tranStack, func(e transferInfo) bool { return e.Arbiter == arb })
	i, j := r.parked(arb)
	r.pendTransfers = slices.Delete(r.pendTransfers, i, j)
}

// onFail handles step A.7: remember the refusal and re-evaluate every parked
// inquire — any permission we hold is now yieldable.
func (r *requester) onFail(m failMsg, st *step) {
	if r.state != stateWaiting || m.ReqTS != r.reqTS {
		return
	}
	r.failed = true
	for arb := range r.inqDeferred.all() {
		if r.replied.has(arb) {
			r.yieldTo(arb, st)
		}
	}
}

// checkEntry performs step B: enter the CS once every quorum member has
// granted. Parked inquires are dropped — the release at exit answers them.
func (r *requester) checkEntry(st *step) {
	if r.state != stateWaiting {
		return
	}
	for _, j := range r.quorum {
		if !r.replied.has(j) {
			return
		}
	}
	r.state = stateInCS
	r.inqDeferred.clear()
	st.out.Entered = true
}

// purge voids the requester state that references the failed site f (Case 2
// of the §6 recovery actions).
func (r *requester) purge(f mutex.SiteID) {
	if r.state == stateIdle {
		return
	}
	r.dropTransfersFrom(f)
	r.tranStack = slices.DeleteFunc(r.tranStack, func(e transferInfo) bool { return e.TargetTS.Site == f })
	r.inqDeferred.remove(f)
}

// refresh re-sends the pending request to every quorum arbiter that has not
// granted it. The crashed site may have been the proxy carrying an arbiter's
// grant to us — the forwarded reply dying with it while the release that
// re-pointed the arbiter's lock survived — and we cannot tell which grants
// were in a dead proxy's custody. The refresh carries every site we know to
// have crashed: because the transport severs a dead peer's streams before
// announcing the crash, any grant proxied by a site in that set is provably
// undeliverable, and the arbiter may re-issue it — immediately when its lock
// already points at this request, or when a forwarding release later
// re-points it here (the refresh-before-release race; the arbiter remembers
// the dead-set against the queued entry). Grants in a live proxy's custody
// are left alone: the refresh arriving does not prove them lost, and
// re-issuing could double-grant across a yield. If that proxy later crashes,
// the next refresh claims it and heals the gap.
func (r *requester) refresh(st *step) {
	dead := slices.Collect(st.dead.all())
	for _, a := range r.quorum {
		if r.replied.has(a) || st.dead.has(a) {
			continue
		}
		st.out.SendTo(st.id, a, requestMsg{TS: r.reqTS, Refresh: true, Dead: dead})
	}
}

// moveQuorum is the one req_set move that §6 rebuilds and membership swaps
// share. Inside the CS the held quorum stays until Exit, which releases
// exactly the arbiters that granted it, and q waits in nextQuorum; an idle
// site swaps; a waiting site swaps and withdraws its request from the
// arbiters that left (freeing their lock or queue slot and voiding their
// transfers). It returns the req_set the site ran before. Contacting the
// arbiters that joined is the caller's: a plain request after a membership
// swap, the §6 refresh after a rebuild.
func (r *requester) moveQuorum(q coterie.Quorum, st *step) (old coterie.Quorum) {
	old = r.quorum
	switch r.state {
	case stateInCS:
		r.nextQuorum = q
		return old
	case stateIdle:
		r.quorum = q
		return old
	}
	r.quorum = q
	for _, a := range old {
		if q.Contains(a) || st.dead.has(a) {
			continue
		}
		st.send(a, releaseMsg{ReqTS: r.reqTS, Fwd: timestamp.None, Withdraw: true}.body())
		r.replied.remove(a)
		r.dropTransfersFrom(a)
		r.inqDeferred.remove(a)
	}
	return old
}
