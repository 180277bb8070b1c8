package core

import (
	"fmt"

	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
)

// The seven control messages of the delay-optimal protocol (§3.1). Every
// message carries the request timestamps needed to detect staleness: proxied
// replies travel on different channels than the arbiter's own messages, so
// FIFO alone cannot order them (see DESIGN.md).

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
func (m requestMsg) claimsDead(id mutex.SiteID) bool {
	for _, f := range m.Dead {
		if f == id {
			return true
		}
	}
	return false
}

func (m requestMsg) String() string {
	if !m.Refresh {
		return fmt.Sprintf("request%v", m.TS)
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
// by the arbiter itself or forwarded by an exiting lock holder acting as the
// arbiter's proxy — that indirection is what cuts the synchronization delay
// from 2T to T.
type replyMsg struct {
	// Arbiter is the site whose permission this reply carries.
	Arbiter mutex.SiteID
	// ReqTS is the granted request, used to discard stale replies.
	ReqTS timestamp.Timestamp
	// Transfer optionally piggybacks a transfer instruction (A.4, §6). It
	// stays a pointer: gob omits a nil pointer but always sends a struct
	// value, and the v0 frame is frozen (TestGobV0ReplyFrameFrozen).
	Transfer *transferInfo
}

// Kind implements mutex.Message.
func (replyMsg) Kind() string { return mutex.KindReply }

func (m replyMsg) String() string { return fmt.Sprintf("reply(arb=%d,%v)", m.Arbiter, m.ReqTS) }

// releaseMsg tells an arbiter that the sender exited the CS. If Fwd is not
// timestamp.None the sender forwarded the arbiter's permission to FwdTS's
// requester on the arbiter's behalf; the arbiter re-points its lock rather
// than granting anew. A releaseMsg whose ReqTS is still queued (not locked)
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

// Kind implements mutex.Message.
func (releaseMsg) Kind() string { return mutex.KindRelease }

func (m releaseMsg) String() string {
	if m.Fwd == timestamp.None {
		return fmt.Sprintf("release(%v)", m.ReqTS)
	}
	return fmt.Sprintf("release(%v,fwd=%v)", m.ReqTS, m.FwdTS)
}

// inquireMsg asks the current lock holder whether it has succeeded in
// collecting all replies; an unsuccessful holder answers with a yield.
type inquireMsg struct {
	// Arbiter is the inquiring site.
	Arbiter mutex.SiteID
	// HolderTS is the arbiter's current lock value, identifying which grant
	// is being inquired (stale inquires are ignored).
	HolderTS timestamp.Timestamp
}

// Kind implements mutex.Message.
func (inquireMsg) Kind() string { return mutex.KindInquire }

func (m inquireMsg) String() string { return fmt.Sprintf("inquire(arb=%d)", m.Arbiter) }

// failMsg tells a requester that the arbiter has granted a higher-priority
// request and the requester is not currently first in line.
type failMsg struct {
	// Arbiter is the refusing site.
	Arbiter mutex.SiteID
	// ReqTS is the requester's request being refused.
	ReqTS timestamp.Timestamp
}

// Kind implements mutex.Message.
func (failMsg) Kind() string { return mutex.KindFail }

func (m failMsg) String() string { return fmt.Sprintf("fail(arb=%d,%v)", m.Arbiter, m.ReqTS) }

// yieldMsg returns a permission to the arbiter so it can re-grant to a
// higher-priority request; the yielding site waits to be granted again.
type yieldMsg struct {
	// ReqTS is the yielding request (the arbiter's current lock value).
	ReqTS timestamp.Timestamp
}

// Kind implements mutex.Message.
func (yieldMsg) Kind() string { return mutex.KindYield }

func (m yieldMsg) String() string { return fmt.Sprintf("yield(%v)", m.ReqTS) }

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

// Kind implements mutex.Message.
func (transferMsg) Kind() string { return mutex.KindTransfer }

func (m transferMsg) String() string {
	s := fmt.Sprintf("transfer(arb=%d,to=%v)", m.Transfer.Arbiter, m.Transfer.TargetTS)
	if m.Inquire {
		s += "+inquire"
	}
	return s
}
