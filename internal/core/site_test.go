package core

import (
	"testing"

	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
)

// White-box tests driving the Site handlers message by message, covering the
// protocol branches that randomized simulation may hit only occasionally.

// mkSite builds a site with the given quorum (no recovery construction).
func mkSite(id mutex.SiteID, quorum ...mutex.SiteID) *Site {
	q := make(coterie.Quorum, len(quorum))
	copy(q, quorum)
	return newSite(id, 16, q, nil)
}

// carry returns the envelope a site would send for msg: the payload inline
// when the body can hold it, behind Msg otherwise.
func carry(from, to mutex.SiteID, msg any) mutex.Envelope {
	env := mutex.Envelope{From: from, To: to}
	if b, ok := unbox(msg); ok {
		env.Body = b
	} else {
		env.Msg = msg.(mutex.Message) // the refresh request
	}
	return env
}

// payload returns the envelope's message in struct form, whichever way it
// is carried.
func payload(e mutex.Envelope) any {
	if e.Body.Kind != mutex.BodyNone {
		return box(e.Body)
	}
	return e.Msg
}

// box returns the struct form of an inline body, as tests that compare whole
// messages want it.
func box(b mutex.Body) any {
	switch b.Kind {
	case mutex.BodyRequest:
		return requestOf(b)
	case mutex.BodyReply:
		return replyOf(b)
	case mutex.BodyRelease:
		return releaseOf(b)
	case mutex.BodyInquire:
		return inquireOf(b)
	case mutex.BodyFail:
		return failOf(b)
	case mutex.BodyYield:
		return yieldOf(b)
	case mutex.BodyTransfer:
		return transferOf(b)
	}
	return nil
}

// unbox is box's inverse. ok is false for a message the body cannot carry:
// a refresh request, or a type that is not one of the seven.
func unbox(m any) (b mutex.Body, ok bool) {
	switch v := m.(type) {
	case requestMsg:
		return v.body(), !v.Refresh && len(v.Dead) == 0
	case replyMsg:
		return v.body(), true
	case releaseMsg:
		return v.body(), true
	case inquireMsg:
		return v.body(), true
	case failMsg:
		return v.body(), true
	case yieldMsg:
		return v.body(), true
	case transferMsg:
		return v.body(), true
	}
	return mutex.Body{}, false
}

// deliver pushes a message through Deliver.
func deliver(s *Site, from mutex.SiteID, msg any) mutex.Output {
	return s.Deliver(carry(from, s.id, msg))
}

// announce delivers the §6 notice that site f crashed.
func announce(s *Site, f mutex.SiteID) mutex.Output {
	return deliver(s, s.id, mutex.FailureMsg{Failed: f})
}

// sent extracts the messages of a given kind from an output.
func sent(out mutex.Output, kind string) []mutex.Envelope {
	var got []mutex.Envelope
	for _, e := range out.Send {
		if e.Kind() == kind {
			got = append(got, e)
		}
	}
	return got
}

func TestArbiterGrantsWhenUnlocked(t *testing.T) {
	s := mkSite(1)
	out := deliver(s, 2, requestMsg{TS: ts(5, 2)})
	replies := sent(out, mutex.KindReply)
	if len(replies) != 1 || replies[0].To != 2 {
		t.Fatalf("replies = %v", replies)
	}
	if s.arb.lock != ts(5, 2) {
		t.Errorf("lock = %v", s.arb.lock)
	}
	r, ok := payload(replies[0]).(replyMsg)
	if !ok || r.Arbiter != 1 || r.ReqTS != ts(5, 2) {
		t.Errorf("reply payload = %+v", payload(replies[0]))
	}
}

func TestArbiterFailsNonWinner(t *testing.T) {
	s := mkSite(1)
	deliver(s, 2, requestMsg{TS: ts(5, 2)}) // locks
	// Lower-priority request: head of queue but loses to the lock → fail +
	// transfer toward the holder.
	out := deliver(s, 3, requestMsg{TS: ts(6, 3)})
	if f := sent(out, mutex.KindFail); len(f) != 1 || f[0].To != 3 {
		t.Fatalf("fail = %v", f)
	}
	tr := sent(out, mutex.KindTransfer)
	if len(tr) != 1 || tr[0].To != 2 {
		t.Fatalf("transfer = %v", tr)
	}
	tm := payload(tr[0]).(transferMsg)
	if tm.Inquire {
		t.Error("inquire must not piggyback when the head loses to the lock")
	}
	if tm.Transfer.TargetTS != ts(6, 3) || tm.HolderTS != ts(5, 2) {
		t.Errorf("transfer payload = %+v", tm)
	}
}

func TestArbiterInquiresForHigherPriorityHead(t *testing.T) {
	s := mkSite(1)
	deliver(s, 2, requestMsg{TS: ts(5, 2)})
	// Higher-priority request: no fail to it, transfer+inquire to holder.
	out := deliver(s, 3, requestMsg{TS: ts(4, 3)})
	if f := sent(out, mutex.KindFail); len(f) != 0 {
		t.Fatalf("winner got fail: %v", f)
	}
	tr := sent(out, mutex.KindTransfer)
	if len(tr) != 1 || !payload(tr[0]).(transferMsg).Inquire {
		t.Fatalf("want inquire piggybacked on transfer, got %v", tr)
	}
	if !s.arb.inquired {
		t.Error("inquired flag not set")
	}
}

func TestArbiterFailsDisplacedWinningHead(t *testing.T) {
	s := mkSite(1)
	deliver(s, 2, requestMsg{TS: ts(5, 2)})
	deliver(s, 3, requestMsg{TS: ts(4, 3)}) // winning head, no fail
	// Even higher priority displaces it.
	out := deliver(s, 4, requestMsg{TS: ts(3, 4)})
	f := sent(out, mutex.KindFail)
	if len(f) != 1 || f[0].To != 3 {
		t.Fatalf("displaced head fail = %v", f)
	}
	// The new head gets a fresh transfer but no second inquire (deduped per
	// lock generation).
	tr := sent(out, mutex.KindTransfer)
	if len(tr) != 1 || payload(tr[0]).(transferMsg).Inquire {
		t.Fatalf("transfer = %v (inquire must be deduped)", tr)
	}
}

func TestArbiterDisplacedLosingHeadGetsNoSecondFail(t *testing.T) {
	s := mkSite(1)
	deliver(s, 2, requestMsg{TS: ts(2, 2)})
	out1 := deliver(s, 3, requestMsg{TS: ts(6, 3)}) // losing head: failed already
	if len(sent(out1, mutex.KindFail)) != 1 {
		t.Fatal("losing head should fail on arrival")
	}
	out2 := deliver(s, 4, requestMsg{TS: ts(5, 4)}) // displaces, still loses to lock
	var toOld []mutex.Envelope
	for _, e := range sent(out2, mutex.KindFail) {
		if e.To == 3 {
			toOld = append(toOld, e)
		}
	}
	if len(toOld) != 0 {
		t.Errorf("already-failed head re-failed: %v", toOld)
	}
}

func TestRequesterEntersWhenAllReplied(t *testing.T) {
	s := mkSite(1, 2, 3)
	out := s.Request()
	if len(sent(out, mutex.KindRequest)) != 2 {
		t.Fatalf("requests = %v", out.Send)
	}
	myTS := s.req.reqTS
	out = deliver(s, 2, replyMsg{Arbiter: 2, ReqTS: myTS})
	if out.Entered {
		t.Fatal("entered with one of two replies")
	}
	out = deliver(s, 3, replyMsg{Arbiter: 3, ReqTS: myTS})
	if !out.Entered || !s.InCS() {
		t.Fatal("did not enter with all replies")
	}
}

func TestRequesterIgnoresStaleReply(t *testing.T) {
	s := mkSite(1, 2)
	s.Request()
	out := deliver(s, 2, replyMsg{Arbiter: 2, ReqTS: ts(99, 1)}) // not our request
	if out.Entered {
		t.Fatal("entered on stale reply")
	}
	// The stale grant is declined back to the arbiter so it is not wedged.
	if rel := sent(out, mutex.KindRelease); len(rel) != 1 || rel[0].To != 2 {
		t.Fatalf("stale reply not declined: %v", out.Send)
	}
}

func TestInquireBeforeReplyIsParked(t *testing.T) {
	s := mkSite(1, 2, 3)
	s.Request()
	myTS := s.req.reqTS
	out := deliver(s, 2, inquireMsg{Arbiter: 2, HolderTS: myTS})
	if len(out.Send) != 0 {
		t.Fatalf("inquire before reply answered immediately: %v", out.Send)
	}
	if !s.req.inqDeferred.has(2) {
		t.Fatal("inquire not parked")
	}
	// A fail arrives, then the reply: A.6 must re-evaluate and yield.
	deliver(s, 3, failMsg{Arbiter: 3, ReqTS: myTS})
	out = deliver(s, 2, replyMsg{Arbiter: 2, ReqTS: myTS})
	y := sent(out, mutex.KindYield)
	if len(y) != 1 || y[0].To != 2 {
		t.Fatalf("parked inquire did not yield after fail+reply: %v", out.Send)
	}
	if s.req.replied.has(2) {
		t.Error("replied[2] still set after yield")
	}
}

func TestFailTriggersYieldOfHeldPermission(t *testing.T) {
	s := mkSite(1, 2, 3)
	s.Request()
	myTS := s.req.reqTS
	deliver(s, 2, replyMsg{Arbiter: 2, ReqTS: myTS})
	deliver(s, 2, inquireMsg{Arbiter: 2, HolderTS: myTS}) // parked: not failed yet
	out := deliver(s, 3, failMsg{Arbiter: 3, ReqTS: myTS})
	y := sent(out, mutex.KindYield)
	if len(y) != 1 || y[0].To != 2 {
		t.Fatalf("A.7 did not yield: %v", out.Send)
	}
}

func TestInquireInCSIsIgnored(t *testing.T) {
	s := mkSite(1, 2)
	s.Request()
	myTS := s.req.reqTS
	deliver(s, 2, replyMsg{Arbiter: 2, ReqTS: myTS})
	if !s.InCS() {
		t.Fatal("setup: not in CS")
	}
	out := deliver(s, 2, inquireMsg{Arbiter: 2, HolderTS: myTS})
	if len(out.Send) != 0 {
		t.Fatalf("inquire answered while in CS: %v", out.Send)
	}
}

func TestTransferParkedUntilProxiedReplyArrives(t *testing.T) {
	s := mkSite(1, 2, 3)
	s.Request()
	myTS := s.req.reqTS
	// Transfer from arbiter 2 outruns the proxied reply.
	deliver(s, 2, transferMsg{Transfer: transferInfo{Arbiter: 2, TargetTS: ts(9, 5)}, HolderTS: myTS})
	if len(s.req.tranStack) != 0 {
		t.Fatal("transfer accepted before reply")
	}
	if len(s.req.pendTransfers) != 1 || s.req.pendTransfers[0].Arbiter != 2 {
		t.Fatal("transfer not parked")
	}
	// The proxied reply lands (From is the proxy, Arbiter is 2).
	deliver(s, 4, replyMsg{Arbiter: 2, ReqTS: myTS})
	if len(s.req.tranStack) != 1 || s.req.tranStack[0].TargetTS != ts(9, 5) {
		t.Fatalf("parked transfer not replayed: %v", s.req.tranStack)
	}
	if len(s.req.pendTransfers) != 0 {
		t.Fatal("parking buffer not drained")
	}
}

func TestTransferForOldSessionDropped(t *testing.T) {
	s := mkSite(1, 2)
	s.Request()
	deliver(s, 2, transferMsg{Transfer: transferInfo{Arbiter: 2, TargetTS: ts(9, 5)}, HolderTS: ts(42, 1)})
	if len(s.req.tranStack) != 0 || len(s.req.pendTransfers) != 0 {
		t.Fatal("stale transfer retained")
	}
}

func TestYieldRegrantsHighestAndPiggybacksTransfer(t *testing.T) {
	s := mkSite(1)
	deliver(s, 2, requestMsg{TS: ts(5, 2)})
	deliver(s, 3, requestMsg{TS: ts(4, 3)}) // triggers inquire
	deliver(s, 4, requestMsg{TS: ts(6, 4)})
	out := deliver(s, 2, yieldMsg{ReqTS: ts(5, 2)})
	replies := sent(out, mutex.KindReply)
	if len(replies) != 1 || replies[0].To != 3 {
		t.Fatalf("regrant = %v", replies)
	}
	r := payload(replies[0]).(replyMsg)
	if r.Transfer == nil || r.Transfer.TargetTS != ts(5, 2) {
		t.Fatalf("reply should piggyback transfer for next head (the yielder), got %+v", r.Transfer)
	}
	if s.arb.lock != ts(4, 3) {
		t.Errorf("lock = %v", s.arb.lock)
	}
}

func TestStaleYieldIgnored(t *testing.T) {
	s := mkSite(1)
	deliver(s, 2, requestMsg{TS: ts(5, 2)})
	out := deliver(s, 3, yieldMsg{ReqTS: ts(4, 3)}) // not the holder
	if len(out.Send) != 0 || s.arb.lock != ts(5, 2) {
		t.Fatal("stale yield disturbed the lock")
	}
}

func TestExitForwardsNewestTransferPerArbiter(t *testing.T) {
	s := mkSite(1, 2, 3)
	s.Request()
	myTS := s.req.reqTS
	deliver(s, 2, replyMsg{Arbiter: 2, ReqTS: myTS})
	deliver(s, 3, replyMsg{Arbiter: 3, ReqTS: myTS})
	// Two transfers from arbiter 2 — only the newest counts; one from 3.
	deliver(s, 2, transferMsg{Transfer: transferInfo{Arbiter: 2, TargetTS: ts(9, 5)}, HolderTS: myTS})
	deliver(s, 2, transferMsg{Transfer: transferInfo{Arbiter: 2, TargetTS: ts(8, 6)}, HolderTS: myTS})
	deliver(s, 3, transferMsg{Transfer: transferInfo{Arbiter: 3, TargetTS: ts(9, 5)}, HolderTS: myTS})
	out := s.Exit()
	replies := sent(out, mutex.KindReply)
	if len(replies) != 2 {
		t.Fatalf("forwarded replies = %v", replies)
	}
	// Arbiter 2's newest transfer targets (8,6): forwarded to site 6.
	var to6, to5 bool
	for _, e := range replies {
		switch e.To {
		case 6:
			to6 = true
			if r := payload(e).(replyMsg); r.Arbiter != 2 || r.ReqTS != ts(8, 6) {
				t.Errorf("forward payload = %+v", r)
			}
		case 5:
			to5 = true
		}
	}
	if !to6 || !to5 {
		t.Fatalf("forward targets wrong: %v", replies)
	}
	rels := sent(out, mutex.KindRelease)
	if len(rels) != 2 { // one per quorum member (quorum is {2, 3})
		t.Fatalf("releases = %v", rels)
	}
	for _, e := range rels {
		r := payload(e).(releaseMsg)
		switch e.To {
		case 2:
			if r.Fwd != 6 || r.FwdTS != ts(8, 6) {
				t.Errorf("release to 2 = %+v", r)
			}
		case 3:
			if r.Fwd != 5 {
				t.Errorf("release to 3 = %+v", r)
			}
		}
	}
}

func TestReleaseWithForwardMovesLock(t *testing.T) {
	s := mkSite(1)
	deliver(s, 2, requestMsg{TS: ts(5, 2)})
	deliver(s, 3, requestMsg{TS: ts(6, 3)})
	out := deliver(s, 2, releaseMsg{ReqTS: ts(5, 2), Fwd: 3, FwdTS: ts(6, 3)})
	if s.arb.lock != ts(6, 3) {
		t.Fatalf("lock = %v, want (6,3)", s.arb.lock)
	}
	if s.arb.queue.Contains(ts(6, 3)) {
		t.Fatal("forwarded request still queued")
	}
	if len(out.Send) != 0 {
		t.Fatalf("no handoff expected with empty queue: %v", out.Send)
	}
}

func TestReleaseWithForwardReArmsHandoff(t *testing.T) {
	s := mkSite(1)
	deliver(s, 2, requestMsg{TS: ts(5, 2)})
	deliver(s, 3, requestMsg{TS: ts(6, 3)})
	deliver(s, 4, requestMsg{TS: ts(4, 4)}) // higher priority waiter
	out := deliver(s, 2, releaseMsg{ReqTS: ts(5, 2), Fwd: 3, FwdTS: ts(6, 3)})
	tr := sent(out, mutex.KindTransfer)
	if len(tr) != 1 || tr[0].To != 3 {
		t.Fatalf("handoff transfer = %v", tr)
	}
	tm := payload(tr[0]).(transferMsg)
	if !tm.Inquire || tm.Transfer.TargetTS != ts(4, 4) {
		t.Fatalf("handoff = %+v, want inquire for (4,4)", tm)
	}
}

func TestReleaseFallbackGrantsDirectly(t *testing.T) {
	s := mkSite(1)
	deliver(s, 2, requestMsg{TS: ts(5, 2)})
	deliver(s, 3, requestMsg{TS: ts(6, 3)})
	out := deliver(s, 2, releaseMsg{ReqTS: ts(5, 2), Fwd: timestamp.None})
	replies := sent(out, mutex.KindReply)
	if len(replies) != 1 || replies[0].To != 3 {
		t.Fatalf("fallback grant = %v", replies)
	}
	if s.arb.lock != ts(6, 3) {
		t.Errorf("lock = %v", s.arb.lock)
	}
}

func TestEarlyReleaseBufferedAndDrained(t *testing.T) {
	s := mkSite(1)
	deliver(s, 2, requestMsg{TS: ts(5, 2)})
	deliver(s, 3, requestMsg{TS: ts(6, 3)})
	// Site 3's release arrives before the arbiter knows 3 got the lock.
	out := deliver(s, 3, releaseMsg{ReqTS: ts(6, 3), Fwd: timestamp.None})
	if len(out.Send) != 0 {
		t.Fatalf("early release acted immediately: %v", out.Send)
	}
	if s.arb.queue.Contains(ts(6, 3)) != true {
		t.Fatal("early release must not dequeue")
	}
	// Now the forwarding release from site 2 catches up: lock moves to
	// (6,3), drains the buffered release, and the lock frees.
	deliver(s, 2, releaseMsg{ReqTS: ts(5, 2), Fwd: 3, FwdTS: ts(6, 3)})
	if !s.arb.lock.IsMax() {
		t.Fatalf("lock = %v, want unlocked after drained early release", s.arb.lock)
	}
	if len(s.arb.earlyReleases) != 0 {
		t.Fatal("early release buffer not drained")
	}
}

func TestWithdrawalRemovesQueuedRequest(t *testing.T) {
	s := mkSite(1)
	deliver(s, 2, requestMsg{TS: ts(5, 2)})
	deliver(s, 3, requestMsg{TS: ts(6, 3)})
	out := deliver(s, 3, releaseMsg{ReqTS: ts(6, 3), Withdraw: true})
	if s.arb.queue.Contains(ts(6, 3)) {
		t.Fatal("withdrawal did not dequeue")
	}
	if len(s.arb.earlyReleases) != 0 {
		t.Fatal("withdrawal buffered as early release")
	}
	_ = out
}

// TestForwardingReleaseAfterWithdrawalReturnsPermission pins the arbiter
// half of a membership-swap race: a queued request is named in a transfer
// toward the holder, then withdraws (its site swapped onto a req_set that no
// longer contains this arbiter) before the holder's forwarding release
// lands. Re-pointing the lock at the withdrawn request would wedge it
// forever — the withdrawn site releases only to its new req_set — so the
// forwarding release must degrade to a plain release and grant the next
// waiter. Found as a live 7→4 shrink deadlock by the chaos reconfigure
// archetype (seed 61006).
func TestForwardingReleaseAfterWithdrawalReturnsPermission(t *testing.T) {
	s := mkSite(1)
	deliver(s, 2, requestMsg{TS: ts(5, 2)}) // locks
	deliver(s, 3, requestMsg{TS: ts(6, 3)}) // queued; transfer names (6,3)
	deliver(s, 4, requestMsg{TS: ts(7, 4)}) // queued behind it
	// (6,3) withdraws: its site's membership swap dropped arbiter 1.
	deliver(s, 3, releaseMsg{ReqTS: ts(6, 3), Withdraw: true})
	// The holder's forwarding release still names (6,3): the transfer was
	// issued before the withdrawal. The lock must NOT re-point at (6,3).
	out := deliver(s, 2, releaseMsg{ReqTS: ts(5, 2), Fwd: 3, FwdTS: ts(6, 3)})
	if s.arb.lock == ts(6, 3) {
		t.Fatal("lock re-pointed at a withdrawn request")
	}
	if s.arb.lock != ts(7, 4) {
		t.Fatalf("lock = %v, want the next waiter (7,4)", s.arb.lock)
	}
	replies := sent(out, mutex.KindReply)
	if len(replies) != 1 || replies[0].To != 4 {
		t.Fatalf("grant after degraded forwarding release = %v", replies)
	}

	// Same race with an empty queue behind the withdrawn request: the lock
	// must simply free.
	s2 := mkSite(1)
	deliver(s2, 2, requestMsg{TS: ts(5, 2)})
	deliver(s2, 3, requestMsg{TS: ts(6, 3)})
	deliver(s2, 3, releaseMsg{ReqTS: ts(6, 3), Withdraw: true})
	deliver(s2, 2, releaseMsg{ReqTS: ts(5, 2), Fwd: 3, FwdTS: ts(6, 3)})
	if !s2.arb.lock.IsMax() {
		t.Fatalf("lock = %v, want unlocked", s2.arb.lock)
	}
}

func TestRequestFromAnnouncedFailedSiteDropped(t *testing.T) {
	s := mkSite(1, 2)
	announce(s, 5)
	out := deliver(s, 5, requestMsg{TS: ts(3, 5)})
	if len(out.Send) != 0 || !s.arb.lock.IsMax() {
		t.Fatal("request from failed site processed")
	}
}

func TestSiteFailedRegrantsHeldLock(t *testing.T) {
	s := mkSite(1)
	deliver(s, 2, requestMsg{TS: ts(5, 2)})
	deliver(s, 3, requestMsg{TS: ts(6, 3)})
	out := announce(s, 2) // the holder dies
	replies := sent(out, mutex.KindReply)
	if len(replies) != 1 || replies[0].To != 3 {
		t.Fatalf("regrant after holder crash = %v", replies)
	}
	if s.arb.lock != ts(6, 3) {
		t.Errorf("lock = %v", s.arb.lock)
	}
}

func TestSiteFailedPurgesQueueHead(t *testing.T) {
	s := mkSite(1)
	deliver(s, 2, requestMsg{TS: ts(5, 2)})
	deliver(s, 3, requestMsg{TS: ts(6, 3)})
	deliver(s, 4, requestMsg{TS: ts(7, 4)})
	out := announce(s, 3) // queued head dies
	if s.arb.queue.Contains(ts(6, 3)) {
		t.Fatal("failed site's request still queued")
	}
	// The holder must learn the new head.
	tr := sent(out, mutex.KindTransfer)
	if len(tr) != 1 || payload(tr[0]).(transferMsg).Transfer.TargetTS != ts(7, 4) {
		t.Fatalf("handoff after purge = %v", tr)
	}
}

func TestDuplicateFailureAnnouncementIdempotent(t *testing.T) {
	s := mkSite(1)
	deliver(s, 2, requestMsg{TS: ts(5, 2)})
	out1 := announce(s, 2)
	out2 := announce(s, 2)
	if len(out2.Send) != 0 {
		t.Fatalf("second announcement acted again: %v", out2.Send)
	}
	_ = out1
}

func TestRequestWhileBusyIsNoOp(t *testing.T) {
	s := mkSite(1, 2)
	s.Request()
	out := s.Request()
	if len(out.Send) != 0 {
		t.Fatal("second Request while pending sent messages")
	}
	if out2 := s.Exit(); len(out2.Send) != 0 {
		t.Fatal("Exit while not in CS sent messages")
	}
}

// --- Maekawa: the arbiter with the hand-off via itself ----------------------
//
// The handlers above, on a site whose hand-off is ViaArbiter: the arbiter
// never names a successor to the holder, and the requester half is unchanged.

func mkViaArbiter(id mutex.SiteID, quorum ...mutex.SiteID) *Site {
	s := mkSite(id, quorum...)
	s.arb.handoff = ViaArbiter
	return s
}

func TestViaArbiterUnlockedArbiterGrants(t *testing.T) {
	s := mkViaArbiter(1)
	out := deliver(s, 2, requestMsg{TS: ts(5, 2)})
	if len(sent(out, mutex.KindReply)) != 1 || s.arb.lock != ts(5, 2) {
		t.Fatalf("grant failed: %v, lock=%v", out.Send, s.arb.lock)
	}
}

func TestViaArbiterLockedArbiterNeverSendsTransfer(t *testing.T) {
	s := mkViaArbiter(1)
	deliver(s, 2, requestMsg{TS: ts(5, 2)})
	out := deliver(s, 3, requestMsg{TS: ts(4, 3)})
	if len(sent(out, mutex.KindTransfer)) != 0 {
		t.Fatal("maekawa sent a transfer")
	}
	if len(sent(out, mutex.KindInquire)) != 1 {
		t.Fatalf("higher-priority arrival should inquire the holder: %v", out.Send)
	}
}

func TestViaArbiterReleaseGrantsViaArbiter(t *testing.T) {
	s := mkViaArbiter(1)
	deliver(s, 2, requestMsg{TS: ts(5, 2)})
	deliver(s, 3, requestMsg{TS: ts(6, 3)})
	deliver(s, 4, requestMsg{TS: ts(7, 4)})
	out := deliver(s, 2, releaseMsg{ReqTS: ts(5, 2), Fwd: timestamp.None})
	// The 2T path: the arbiter replies to the next waiter itself, and names
	// no successor even though one is queued.
	replies := sent(out, mutex.KindReply)
	if len(out.Send) != 1 || len(replies) != 1 || replies[0].To != 3 {
		t.Fatalf("release regrant = %v", out.Send)
	}
	if r := payload(replies[0]).(replyMsg); r.Transfer != nil {
		t.Errorf("regrant carries a transfer: %+v", r.Transfer)
	}
	if s.arb.lock != ts(6, 3) {
		t.Errorf("lock = %v", s.arb.lock)
	}
}

func TestViaArbiterStaleReleaseIgnored(t *testing.T) {
	s := mkViaArbiter(1)
	deliver(s, 2, requestMsg{TS: ts(5, 2)})
	out := deliver(s, 3, releaseMsg{ReqTS: ts(9, 3), Fwd: timestamp.None})
	if len(out.Send) != 0 || s.arb.lock != ts(5, 2) {
		t.Fatal("stale release disturbed the lock")
	}
}

func TestViaArbiterYieldRequeuesAndRegrants(t *testing.T) {
	s := mkViaArbiter(1)
	deliver(s, 2, requestMsg{TS: ts(5, 2)})
	deliver(s, 3, requestMsg{TS: ts(4, 3)})
	out := deliver(s, 2, yieldMsg{ReqTS: ts(5, 2)})
	replies := sent(out, mutex.KindReply)
	if len(out.Send) != 1 || len(replies) != 1 || replies[0].To != 3 {
		t.Fatalf("yield regrant = %v", out.Send)
	}
	if s.arb.queue.Empty() || s.arb.queue.Head() != ts(5, 2) {
		t.Errorf("yielder not requeued: %v", s.arb.queue.items)
	}
}

func TestViaArbiterInquireDeferredUntilFail(t *testing.T) {
	s := mkViaArbiter(1, 2, 3)
	s.Request()
	my := s.req.reqTS
	deliver(s, 2, replyMsg{Arbiter: 2, ReqTS: my})
	out := deliver(s, 2, inquireMsg{Arbiter: 2, HolderTS: my})
	if len(out.Send) != 0 {
		t.Fatalf("yielded before failing: %v", out.Send)
	}
	out = deliver(s, 3, failMsg{Arbiter: 3, ReqTS: my})
	if len(sent(out, mutex.KindYield)) != 1 {
		t.Fatalf("fail did not trigger the parked yield: %v", out.Send)
	}
	if s.req.replied.has(2) {
		t.Error("replied[2] survived the yield")
	}
}

func TestViaArbiterEntryAfterAllReplies(t *testing.T) {
	s := mkViaArbiter(1, 2, 3)
	s.Request()
	my := s.req.reqTS
	deliver(s, 2, replyMsg{Arbiter: 2, ReqTS: my})
	out := deliver(s, 3, replyMsg{Arbiter: 3, ReqTS: my})
	if !out.Entered || !s.InCS() {
		t.Fatal("no entry with full quorum")
	}
	out = s.Exit()
	if len(out.Send) != 2 || len(sent(out, mutex.KindRelease)) != 2 {
		t.Fatalf("exit releases = %v", out.Send)
	}
}

// TestInCSSwapAvoidsKnownCrash: a req_set swap that reaches a site inside
// the critical section waits for Exit. When the planned quorum names a site
// the holder already knows to have crashed — the crash announced before the
// swap or after it — the quorum it moves to at Exit must avoid that site,
// as an idle or waiting site's does; otherwise its next request waits on a
// dead arbiter for good.
func TestInCSSwapAvoidsKnownCrash(t *testing.T) {
	for _, crashFirst := range []bool{true, false} {
		sites, err := Algorithm{Construction: coterie.Majority{}}.NewSites(5)
		if err != nil {
			t.Fatal(err)
		}
		w := &walk{chans: map[[2]mutex.SiteID][]mutex.Envelope{}, crashed: make([]bool, 5)}
		for _, s := range sites {
			w.sites = append(w.sites, s.(*Site))
		}
		settle := func() {
			for ks := w.keys(); len(ks) > 0; ks = w.keys() {
				for _, k := range ks {
					env := w.chans[k][0]
					w.chans[k] = w.chans[k][1:]
					w.route(w.sites[env.To].Deliver(env))
				}
			}
		}
		s0 := w.sites[0]
		w.route(s0.Request())
		settle()
		if !s0.InCS() {
			t.Fatalf("crashFirst=%v: site 0 did not enter: %s", crashFirst, s0.DebugString())
		}
		if s0.req.quorum.Contains(4) {
			t.Fatalf("site 0 starts on %v; the test needs a held quorum without site 4", s0.req.quorum)
		}
		w.crashed[4] = true
		swap := []mutex.SiteID{0, 3, 4}
		if crashFirst {
			w.route(announce(s0, 4))
			w.route(s0.SetMembership(mutex.Membership{N: 5, Quorum: swap, Stage: 1}))
		} else {
			w.route(s0.SetMembership(mutex.Membership{N: 5, Quorum: swap, Stage: 1}))
			w.route(announce(s0, 4))
		}
		w.route(s0.Exit())
		settle()
		if s0.req.quorum.Contains(4) {
			t.Fatalf("crashFirst=%v: after Exit site 0's quorum %v names crashed site 4", crashFirst, s0.req.quorum)
		}
		w.route(s0.Request())
		settle()
		if !s0.InCS() {
			t.Fatalf("crashFirst=%v: next request did not enter: %s", crashFirst, s0.DebugString())
		}
	}
}
