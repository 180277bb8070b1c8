package core

import (
	"cmp"
	"slices"

	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
)

// arbiter is the half of a site that owns its one permission: it grants the
// lock to one request at a time, queues the rest by Lamport priority, fails
// the requests that cannot win, recalls the permission with inquire for a
// higher-priority waiter, and tells the holder whom to forward it to. It
// handles request (A.2), yield (A.4) and release (C), and the §6 purge.
type arbiter struct {
	lock         timestamp.Timestamp // (max,max) when unlocked
	queue        tsQueue             // req_queue
	inquired     bool                // inquire sent for the current lock generation
	lastTransfer timestamp.Timestamp // target of the latest transfer this generation

	// lockVia is the proxy whose forwarding release produced the current
	// lock value, or timestamp.None when this arbiter granted the lock
	// directly. A grant that traveled through a proxy dies with the proxy;
	// lockVia is what lets a §6 crash refresh decide whether that grant is
	// provably lost (the refresh declares the proxy dead).
	lockVia mutex.SiteID

	// refreshDead records, per queued request, the sites its requester has
	// declared crashed via §6 refresh resends, sorted by request and then by
	// site. When a forwarding release re-points the lock at such a request
	// and the forwarding proxy is among its claims, the proxied reply died
	// with the proxy — the arbiter re-issues the grant directly instead of
	// trusting it.
	refreshDead []refreshClaim

	// earlyReleases buffers releases that arrive before this arbiter has
	// learned (via the previous holder's forwarding release) that the sender
	// holds the lock. A proxied reply lets the next site acquire, execute,
	// and release within one message delay — faster than the arbiter's own
	// view can catch up — so the release is applied when the lock reaches
	// the released request. Sorted by ReqTS.
	earlyReleases []releaseMsg

	// cases counts the §5.2 heavy-load case classification of arrivals.
	cases CaseStats

	// handoff is the Algorithm's hand-off path; Transfer, the zero value, is
	// the paper's. ensureHandoff and grantNext read it: ViaArbiter never
	// announces the next waiter to the holder, so its tran_stack stays empty
	// and every handover waits for the release.
	handoff Handoff
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

func (a *arbiter) resetLockGen() {
	a.inquired = false
	a.lastTransfer = timestamp.Max
	a.lockVia = timestamp.None
}

// markRefresh accumulates the known-dead claims of a §6 refresh against its
// queued request, consulted when a forwarding release later re-points the
// lock at it.
func (a *arbiter) markRefresh(m requestMsg) {
	for _, f := range m.Dead {
		a.refreshDead = upsert(a.refreshDead, refreshClaim{TS: m.TS, Dead: f}, refreshClaim.compare)
	}
}

func (a *arbiter) clearRefresh(ts timestamp.Timestamp) {
	a.refreshDead = slices.DeleteFunc(a.refreshDead, func(c refreshClaim) bool { return c.TS == ts })
}

// takeEarly removes and returns the buffered early release of ts, if any.
func (a *arbiter) takeEarly(ts timestamp.Timestamp) (releaseMsg, bool) {
	i, ok := slices.BinarySearchFunc(a.earlyReleases, releaseMsg{ReqTS: ts}, byReqTS)
	if !ok {
		return releaseMsg{}, false
	}
	rel := a.earlyReleases[i]
	a.earlyReleases = slices.Delete(a.earlyReleases, i, i+1)
	return rel, true
}

// onRequest handles step A.2. The published case analysis collapses to three
// rules once the queue is updated first:
//
//   - the new request is not the highest-priority waiter → fail it;
//   - it displaced the previous highest waiter → fail the displaced one;
//   - the highest waiter changed → (re)arm the handoff: send transfer to the
//     lock holder, piggybacking inquire when the waiter outranks the holder.
func (a *arbiter) onRequest(m requestMsg, st *step) {
	st.clock.Witness(m.TS)
	if st.dead.has(m.TS.Site) {
		return // request from a site already announced as crashed
	}
	if a.lock == m.TS {
		// Crash refresh (§6): the requester still lacks our grant. Re-issue
		// it only when the grant is provably lost: one forwarded by a proxy
		// the refresh declares dead died in the severed channel. A direct
		// grant, or one this arbiter's own site forwarded as a holder, is
		// still in flight on the reliable channel from this site to the
		// requester, and a grant in a live proxy's custody may still
		// arrive; re-issuing either would let a yield straddle the two
		// copies and double-grant the permission (the majority-5 traces of
		// modelcheck's counterexample corpus). The refresh then waits for
		// the grant, or for the proxy's failure notification.
		if m.claimsDead(a.lockVia) {
			st.send(m.TS.Site, replyMsg{Arbiter: st.id, ReqTS: m.TS}.body())
		}
		return
	}
	if a.queue.Contains(m.TS) {
		// Crash refresh of a request we already queue: the verdict stands,
		// but remember the requester's dead-set — a forwarding release may
		// yet re-point the lock here trusting a proxied reply that died.
		a.markRefresh(m)
		return
	}
	if a.lock.IsMax() {
		a.lock = m.TS
		a.resetLockGen()
		st.send(m.TS.Site, replyMsg{Arbiter: st.id, ReqTS: m.TS}.body())
		return
	}
	oldHead := timestamp.Max
	if !a.queue.Empty() {
		oldHead = a.queue.Head()
	}
	a.classify(m.TS, oldHead)
	a.queue.Push(m.TS)
	a.markRefresh(m)
	head := a.queue.Head()
	// A request learns it is currently losing (failed = 1) unless it is the
	// unique winner here: first in line AND higher priority than the lock
	// holder. This is what lets inquire chains terminate in a yield — the
	// §5.2 Case 1 fail that the published pseudocode omits.
	if head != m.TS || !m.TS.Less(a.lock) {
		st.send(m.TS.Site, failMsg{Arbiter: st.id, ReqTS: m.TS}.body())
	}
	// A displaced head that was winning has not seen a fail yet; tell it.
	if head == m.TS && !oldHead.IsMax() && oldHead.Less(a.lock) {
		st.send(oldHead.Site, failMsg{Arbiter: st.id, ReqTS: oldHead}.body())
	}
	a.ensureHandoff(st)
}

// ensureHandoff keeps the invariant that the current lock holder knows about
// the highest-priority waiter: it sends a transfer for the head (once per
// head per lock generation) and piggybacks an inquire when the head
// outranks the holder (once per lock generation).
func (a *arbiter) ensureHandoff(st *step) {
	if a.lock.IsMax() || a.queue.Empty() {
		return
	}
	head := a.queue.Head()
	needInquire := head.Less(a.lock) && !a.inquired
	if a.handoff == ViaArbiter {
		// Preemption must still work — a higher-priority waiter recalls the
		// permission via inquire/yield — but the holder is never told whom to
		// forward to, so the handover itself waits for the release.
		if needInquire {
			st.send(a.lock.Site, inquireMsg{Arbiter: st.id, HolderTS: a.lock}.body())
			a.inquired = true
		}
		return
	}
	switch {
	case head != a.lastTransfer:
		a.lastTransfer = head
		st.send(a.lock.Site, transferMsg{
			Transfer: transferInfo{Arbiter: st.id, TargetTS: head},
			HolderTS: a.lock,
			Inquire:  needInquire,
		}.body())
	case needInquire:
		st.send(a.lock.Site, inquireMsg{Arbiter: st.id, HolderTS: a.lock}.body())
	default:
		return
	}
	if needInquire {
		a.inquired = true
	}
}

// onYield handles step A.4: the holder returned the permission; grant the
// highest-priority request (which includes the re-enqueued yielder) and tell
// the new holder about the next waiter in the same message.
func (a *arbiter) onYield(m yieldMsg, st *step) {
	if a.lock != m.ReqTS {
		return // stale yield (lock moved on)
	}
	a.queue.Push(m.ReqTS)
	a.grantNext(st)
}

// grantNext pops the highest-priority waiting request, grants it directly,
// and piggybacks a transfer for the next waiter when one exists. The queue
// must not be empty. If the popped request already released early (possible
// only after crash-induced chain breaks), the release is applied instead of
// granting.
func (a *arbiter) grantNext(st *step) {
	grant := a.queue.Pop()
	a.clearRefresh(grant) // the direct reply below supersedes any refresh claim
	a.lock = grant
	a.resetLockGen()
	if rel, ok := a.takeEarly(grant); ok {
		a.applyRelease(rel, st)
		return
	}
	reply := replyMsg{Arbiter: st.id, ReqTS: grant}
	if !a.queue.Empty() && a.handoff != ViaArbiter {
		a.lastTransfer = a.queue.Head()
		reply.Transfer = &transferInfo{Arbiter: st.id, TargetTS: a.lastTransfer}
	}
	st.send(grant.Site, reply.body())
}

// onRelease handles step C's arrival at the arbiter. With a forward the lock
// is re-pointed at the forwarded request; without one the next waiter is
// granted directly (the 2T fallback path). A release whose request is only
// queued acts as a withdrawal (§6 recovery); a release whose request the
// arbiter does not yet consider the holder is buffered and applied when the
// lock catches up.
func (a *arbiter) onRelease(m releaseMsg, st *step) {
	if a.lock == m.ReqTS {
		a.applyRelease(m, st)
		return
	}
	if m.Withdraw {
		if a.queue.Remove(m.ReqTS) {
			a.clearRefresh(m.ReqTS)
			a.ensureHandoff(st)
		}
		return
	}
	// Early release: the holder-to-holder chain outran this arbiter's view.
	a.earlyReleases = upsert(a.earlyReleases, m, byReqTS)
}

// applyRelease performs the release of the current lock holder's request.
func (a *arbiter) applyRelease(m releaseMsg, st *step) {
	if m.Fwd != timestamp.None && !st.dead.has(m.Fwd) {
		removed := a.queue.Remove(m.FwdTS)
		_, early := slices.BinarySearchFunc(a.earlyReleases, releaseMsg{ReqTS: m.FwdTS}, byReqTS)
		if removed || early {
			// The forwarding proxy is the releasing holder itself. If a §6
			// refresh from the target declared that proxy dead, the proxied
			// reply died in the severed proxy→target channel — re-issue it.
			claim := refreshClaim{TS: m.FwdTS, Dead: m.ReqTS.Site}
			_, reissue := slices.BinarySearchFunc(a.refreshDead, claim, refreshClaim.compare)
			a.clearRefresh(m.FwdTS)
			a.setLock(m.FwdTS, m.ReqTS.Site, reissue, st)
			return
		}
		// The forwarded request is neither queued nor released-ahead: it
		// withdrew from this arbiter (a §6 rebuild or a membership swap)
		// after the transfer naming it was issued, so it will never send the
		// release that clears a re-pointed lock. The permission returns to
		// the pool as a plain release instead.
		a.clearRefresh(m.FwdTS)
	}
	a.releaseLock(st)
}

// releaseLock grants the lock to the next waiter, or frees it when none waits.
func (a *arbiter) releaseLock(st *step) {
	if a.queue.Empty() {
		a.lock = timestamp.Max
		a.resetLockGen()
		return
	}
	a.grantNext(st)
}

// setLock re-points the lock at a request that obtained the permission via
// the proxy via, draining any buffered early release for it (handoff chains
// can run several CS executions ahead of the arbiter's view). Otherwise it
// re-arms the handoff toward the new holder — a higher-priority request may
// have arrived while the forwarding release was in flight. The arbiter sends
// the grant itself when its own site is the new holder (the holder forwards
// no reply there, so the arbiter's view and its site's permission change in
// one step) and when reissue marks the proxied reply as lost. Either way it
// goes before ensureHandoff, so channel FIFO orders it ahead of any inquire
// for this lock generation (a yield prompted by that inquire then covers the
// grant).
func (a *arbiter) setLock(ts timestamp.Timestamp, via mutex.SiteID, reissue bool, st *step) {
	a.lock = ts
	a.resetLockGen()
	a.lockVia = via
	if rel, ok := a.takeEarly(ts); ok {
		a.applyRelease(rel, st)
		return
	}
	if reissue || ts.Site == st.id {
		st.send(ts.Site, replyMsg{Arbiter: st.id, ReqTS: ts}.body())
	}
	a.ensureHandoff(st)
}

// purge removes every trace of the failed site f from the arbiter (the
// paper's Cases 1 and 3 of the §6 recovery actions).
func (a *arbiter) purge(f mutex.SiteID, st *step) {
	a.queue.RemoveSite(f)
	a.refreshDead = slices.DeleteFunc(a.refreshDead, func(c refreshClaim) bool { return c.TS.Site == f })
	if !a.lock.IsMax() && a.lock.Site == f {
		// The failed site held our permission: grant the next request
		// directly, piggybacking a transfer for the one after it.
		a.releaseLock(st)
		return
	}
	// The head may have changed; make sure the holder learns the new head.
	a.ensureHandoff(st)
}
