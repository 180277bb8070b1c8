package core

import (
	"fmt"
	"slices"

	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
)

// The seven control messages of the delay-optimal protocol (§3.1). Every
// message carries the request timestamps needed to detect staleness: proxied
// replies travel on different channels than the arbiter's own messages, so
// FIFO alone cannot order them (see DESIGN.md).
//
// The structs below are what the protocol logic reads and writes. Between
// sites a message travels as a mutex.Body inside its envelope: each struct's
// body method packs it for sending, Deliver unpacks it on the stack with the
// matching …Of function. The one exception is the §6 refresh request, whose
// dead-set has no fixed size: it is sent as a requestMsg behind
// mutex.Message, which makes requestMsg the only one of the seven to
// implement that interface.

// requestMsg asks an arbiter for its permission to enter the CS.
type requestMsg struct {
	// TS is the requester's Lamport timestamp (sn, i).
	TS timestamp.Timestamp
	// Refresh marks a §6 crash-refresh resend: the requester observed a
	// failure while it still lacked this arbiter's grant, so the grant may
	// have died in a crashed proxy's custody.
	Refresh bool
	// Dead is the set of sites the requester knew to have crashed when it
	// sent the refresh, smallest first. Because the transport severs a dead
	// peer's streams before announcing the crash, a proxied reply carried by
	// a site in this set is provably undeliverable — the arbiter may re-issue
	// that grant without risking a duplicate. A reply proxied by a site NOT
	// in this set may still be in flight; re-issuing would race a later
	// inquire/yield and could double-grant the permission.
	Dead []mutex.SiteID
}

// Kind implements mutex.Message.
func (requestMsg) Kind() string { return mutex.KindRequest }

// claimsDead reports whether the refresh declares the given site crashed.
func (m requestMsg) claimsDead(id mutex.SiteID) bool { return slices.Contains(m.Dead, id) }

func (m requestMsg) body() mutex.Body { return mutex.Body{Kind: mutex.BodyRequest, TS: m.TS} }

func requestOf(b mutex.Body) requestMsg { return requestMsg{TS: b.TS} }

func (m requestMsg) String() string {
	if !m.Refresh {
		return m.body().String()
	}
	return fmt.Sprintf("request%v+refresh%v", m.TS, m.Dead)
}

// transferInfo asks the receiving lock holder to forward the arbiter's
// permission directly to Target when it exits the CS. It travels either as a
// standalone transferMsg or piggybacked on a reply or inquire.
type transferInfo struct {
	// Arbiter is the site whose permission is being proxied.
	Arbiter mutex.SiteID
	// TargetTS identifies the request (and requester) to forward to.
	TargetTS timestamp.Timestamp
}

// replyMsg grants the permission of Arbiter to the request ReqTS. It is sent
// by the arbiter itself or, to any site but the arbiter's own, forwarded by an
// exiting lock holder acting as the arbiter's proxy — that indirection is
// what cuts the synchronization delay from 2T to T.
type replyMsg struct {
	// Arbiter is the site whose permission this reply carries.
	Arbiter mutex.SiteID
	// ReqTS is the granted request, used to discard stale replies.
	ReqTS timestamp.Timestamp
	// Transfer optionally piggybacks a transfer instruction (A.4, §6); nil
	// means none.
	Transfer *transferInfo
}

func (m replyMsg) body() mutex.Body {
	b := mutex.Body{Kind: mutex.BodyReply, Site: m.Arbiter, TS: m.ReqTS}
	if m.Transfer != nil {
		b.Flag, b.Site2, b.TS2 = true, m.Transfer.Arbiter, m.Transfer.TargetTS
	}
	return b
}

func replyOf(b mutex.Body) replyMsg {
	m := replyMsg{Arbiter: b.Site, ReqTS: b.TS}
	if b.Flag {
		m.Transfer = &transferInfo{Arbiter: b.Site2, TargetTS: b.TS2}
	}
	return m
}

func (m replyMsg) String() string { return m.body().String() }

// releaseMsg tells an arbiter that the sender exited the CS. If Fwd is not
// timestamp.None the sender forwarded the arbiter's permission to FwdTS's
// requester on the arbiter's behalf; the arbiter re-points its lock rather
// than granting anew. When Fwd is the arbiter's own site the sender forwards
// nothing, and this release is the permission's one carrier: the arbiter
// grants its site in the step that re-points the lock. A releaseMsg whose ReqTS is still queued (not locked)
// acts as a withdrawal, which the §6 recovery protocol uses when a site
// abandons a quorum member after a failure.
type releaseMsg struct {
	// ReqTS is the releasing request.
	ReqTS timestamp.Timestamp
	// Fwd is the site that received the forwarded permission, or
	// timestamp.None when the permission was not transferred.
	Fwd mutex.SiteID
	// FwdTS is the request the permission was forwarded to (valid when Fwd
	// is set).
	FwdTS timestamp.Timestamp
	// Withdraw marks a §6 recovery withdrawal: the request abandons its
	// queue slot (or lock) at this arbiter instead of reporting a CS exit.
	// The distinction matters because a yielded request can be queued and
	// proxy-granted at the same time; its normal release must then be
	// buffered until the arbiter's lock catches up, not treated as a
	// dequeue.
	Withdraw bool
}

func (m releaseMsg) body() mutex.Body {
	return mutex.Body{Kind: mutex.BodyRelease, Flag: m.Withdraw, Site: m.Fwd, TS: m.ReqTS, TS2: m.FwdTS}
}

func releaseOf(b mutex.Body) releaseMsg {
	return releaseMsg{ReqTS: b.TS, Fwd: b.Site, FwdTS: b.TS2, Withdraw: b.Flag}
}

func (m releaseMsg) String() string { return m.body().String() }

// inquireMsg asks the current lock holder whether it has succeeded in
// collecting all replies; an unsuccessful holder answers with a yield.
type inquireMsg struct {
	// Arbiter is the inquiring site.
	Arbiter mutex.SiteID
	// HolderTS is the arbiter's current lock value, identifying which grant
	// is being inquired (stale inquires are ignored).
	HolderTS timestamp.Timestamp
}

func (m inquireMsg) body() mutex.Body {
	return mutex.Body{Kind: mutex.BodyInquire, Site: m.Arbiter, TS: m.HolderTS}
}

func inquireOf(b mutex.Body) inquireMsg { return inquireMsg{Arbiter: b.Site, HolderTS: b.TS} }

func (m inquireMsg) String() string { return m.body().String() }

// failMsg tells a requester that the arbiter has granted a higher-priority
// request and the requester is not currently first in line.
type failMsg struct {
	// Arbiter is the refusing site.
	Arbiter mutex.SiteID
	// ReqTS is the requester's request being refused.
	ReqTS timestamp.Timestamp
}

func (m failMsg) body() mutex.Body {
	return mutex.Body{Kind: mutex.BodyFail, Site: m.Arbiter, TS: m.ReqTS}
}

func failOf(b mutex.Body) failMsg { return failMsg{Arbiter: b.Site, ReqTS: b.TS} }

func (m failMsg) String() string { return m.body().String() }

// yieldMsg returns a permission to the arbiter so it can re-grant to a
// higher-priority request; the yielding site waits to be granted again.
type yieldMsg struct {
	// ReqTS is the yielding request (the arbiter's current lock value).
	ReqTS timestamp.Timestamp
}

func (m yieldMsg) body() mutex.Body { return mutex.Body{Kind: mutex.BodyYield, TS: m.ReqTS} }

func yieldOf(b mutex.Body) yieldMsg { return yieldMsg{ReqTS: b.TS} }

func (m yieldMsg) String() string { return m.body().String() }

// transferMsg carries a transferInfo to the current lock holder, optionally
// piggybacking the arbiter's inquire (counted as a single message, per the
// paper's accounting).
type transferMsg struct {
	// Transfer is the forwarding instruction.
	Transfer transferInfo
	// HolderTS is the arbiter's current lock value; holders ignore transfers
	// that do not match their active request.
	HolderTS timestamp.Timestamp
	// Inquire piggybacks an inquire for the same holder.
	Inquire bool
}

func (m transferMsg) body() mutex.Body {
	return mutex.Body{
		Kind: mutex.BodyTransfer, Flag: m.Inquire,
		Site: m.Transfer.Arbiter, TS: m.HolderTS, TS2: m.Transfer.TargetTS,
	}
}

func transferOf(b mutex.Body) transferMsg {
	return transferMsg{
		Transfer: transferInfo{Arbiter: b.Site, TargetTS: b.TS2},
		HolderTS: b.TS,
		Inquire:  b.Flag,
	}
}

func (m transferMsg) String() string { return m.body().String() }
