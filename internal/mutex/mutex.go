// Package mutex defines the transport-independent contract shared by every
// distributed mutual exclusion algorithm in this repository.
//
// Each algorithm is implemented as a deterministic, single-threaded state
// machine per site (the Site interface). A driver — the discrete-event
// simulator in internal/sim or the goroutine/TCP runtime in
// internal/transport — owns message delivery and time; the state machines
// never block, never spawn goroutines, and communicate only through the
// Output values they return. This is what lets the exact same protocol code
// run under deterministic simulation (for the paper's measurements) and on a
// real network.
package mutex

import "dqmx/internal/timestamp"

// SiteID aliases the repository-wide site identifier.
type SiteID = timestamp.SiteID

// Message is a protocol payload. Kind returns a stable name used for
// per-type message accounting (the paper counts messages per CS execution by
// type); a payload with piggybacked content still counts as one message,
// matching the paper's accounting ("a control message piggybacked with
// another message is counted as one message").
//
// The interface is the carrier of the open set: variable-length payloads and
// types registered from outside this package (the §6 refresh request,
// FailureMsg, the transports' heartbeat and configuration frames, the
// session frames other than a lock request or reply without an error text,
// the baseline algorithms' messages). The paper's seven §3.1 control
// messages and those two session frames travel by value instead, in
// Envelope.Body. Which carrier a message uses is fixed by its shape.
type Message interface {
	Kind() string
}

// Envelope is one message in flight between two sites. A site never
// addresses one to itself: what it would tell itself it does within the
// step, so drivers move and count only messages between distinct sites,
// matching the paper's K−1 counting.
//
// Resource scopes the envelope to one named lock when many independent
// protocol instances share a site set (internal/resource). State machines
// never read or set it: the per-resource sender stamps outgoing envelopes
// and transports route incoming ones by it. The zero value is the default
// resource, so single-lock deployments — and the discrete-event simulator —
// ignore the field entirely.
//
// Seq and Ack are transport metadata stamped by the reliable-delivery
// sublayer (internal/transport): Seq is the envelope's position in its
// (From, To) stream (0 means unsequenced transport-level traffic), Ack is
// the cumulative acknowledgement piggybacked for the reverse stream. State
// machines never read or set either field.
//
// Epoch is the sender's membership stage (internal/membership.Stage): 0
// until a cluster has ever reconfigured, then the totally ordered stamp of
// the sender's current configuration. Like Resource/Seq/Ack it is
// transport metadata — stamped by the per-resource sender, read by
// transports to detect laggards (a frame stamped below the receiver's
// stage is answered with the current configuration) — and never touched by
// the state machines.
//
// The payload is either Body (a §3.1 control message, by value) or Msg (any
// other Message), never both; a standalone ack frame has neither. Code that
// only needs to account for or route an envelope asks Kind and HasPayload
// rather than looking at either carrier.
type Envelope struct {
	Resource string
	From     SiteID
	To       SiteID
	Msg      Message
	Body     Body
	Seq      uint64
	Ack      uint64
	Epoch    uint64
}

// Output collects the externally visible effects of one state-machine step.
//
// Lifetime: Send is valid only until the next call on the Site that returned
// it. A site may build every step's Send in one buffer it keeps, so a driver
// that keeps envelopes across another call on that site copies them into
// memory it owns first; until then it may stamp them in place. Entered and
// the Envelope values themselves are plain copies.
type Output struct {
	// Send lists messages to transmit, in order.
	Send []Envelope
	// Entered is true when the site acquired the critical section during
	// this step. The driver reacts by recording the entry and scheduling the
	// critical-section execution, after which it calls Site.Exit.
	Entered bool
}

// SendTo appends one message to the output.
func (o *Output) SendTo(from, to SiteID, m Message) {
	o.Send = append(o.Send, Envelope{From: from, To: to, Msg: m})
}

// SendBody appends one inline §3.1 control message to the output.
func (o *Output) SendBody(from, to SiteID, b Body) {
	o.Send = append(o.Send, Envelope{From: from, To: to, Body: b})
}

// Site is the per-site protocol state machine. Implementations are not safe
// for concurrent use: a single driver goroutine (or the single-threaded
// simulator) must serialize all calls. The Output a call returns is valid
// until the next call on the same Site (see Output).
type Site interface {
	// ID returns the site's identifier.
	ID() SiteID
	// Request begins acquiring the critical section. It must not be called
	// while a previous request is still pending or the site is inside the
	// CS; sites execute their CS requests sequentially one by one.
	Request() Output
	// Exit releases the critical section. It must only be called after
	// Entered was reported.
	Exit() Output
	// Deliver processes one incoming message addressed to this site.
	Deliver(env Envelope) Output
	// InCS reports whether the site currently holds the critical section.
	InCS() bool
	// Pending reports whether a request is in flight (issued, not yet
	// entered).
	Pending() bool
}

// TimestampedSite is implemented by sites that can expose the Lamport
// timestamp of their in-flight request. Drivers use it to stamp request
// events for external ordering checks; it is strictly observational and
// must be called only from the goroutine driving the site.
type TimestampedSite interface {
	// RequestTimestamp returns the timestamp of the current request and
	// whether one is in flight (issued and not yet exited).
	RequestTimestamp() (timestamp.Timestamp, bool)
}

// Reconfigurable is implemented by sites that support online membership
// change (internal/membership). Drivers move a site between configurations
// by replacing its req_set in place; the site reconciles any in-flight
// request against the new quorum exactly as §6 recovery reconciles around
// a crash — withdrawing from arbiters that left, requesting from arbiters
// that joined, and deferring the swap until Exit while inside the CS.
type Reconfigurable interface {
	// SetMembership installs what the site runs from now on. Installing
	// the membership already in force (the same nonzero Stage) is a no-op.
	SetMembership(m Membership) Output
	// MembershipSettled reports whether the site's effective req_set is the
	// one most recently installed — false while a swap is deferred behind a
	// critical section still held under the previous quorum. The settle
	// barrier between handover phases polls it.
	MembershipSettled() bool
}

// Membership is what one site runs at one membership stage. Only
// internal/membership builds it (Config.Member, Handover.JointMember);
// hosts hand it to Reconfigurable.SetMembership unchanged.
type Membership struct {
	// N is the system size.
	N int
	// Quorum is the site's req_set, sorted and duplicate-free.
	Quorum []SiteID
	// Avoid, when non-nil, replaces the construction's §6 QuorumAvoiding
	// while this membership is in force: it returns a substitute req_set
	// avoiding the given crashed sites, or false when none exists (the
	// site then keeps its quorum and blocks — safety over progress).
	Avoid func(down map[SiteID]bool) ([]SiteID, bool)
	// Stage is the membership.Stage being installed; it tags the site's
	// state for canonicalization.
	Stage uint64
}

// Algorithm constructs the complete set of site state machines for a run.
type Algorithm interface {
	// Name identifies the algorithm in tables and benchmarks.
	Name() string
	// NewSites builds the N per-site state machines for sites 0..n-1.
	NewSites(n int) ([]Site, error)
}

// Message kind names shared across algorithms. Quorum-based algorithms use
// the paper's seven control messages; the token- and permission-based
// baselines reuse request/reply plus their own kinds.
const (
	KindRequest  = "request"
	KindReply    = "reply"
	KindRelease  = "release"
	KindInquire  = "inquire"
	KindFail     = "fail"
	KindYield    = "yield"
	KindTransfer = "transfer"
	KindToken    = "token"
	KindFailure  = "failure" // §6 crash notification
)

// Kinds lists every message kind in canonical table order. Reporting code
// (the simulator's trace summary, the CLI tables, the observability
// snapshots) iterates this list instead of hand-maintaining its own copy.
func Kinds() []string {
	return []string{
		KindRequest, KindReply, KindRelease, KindInquire,
		KindFail, KindYield, KindTransfer, KindToken, KindFailure,
	}
}

// FailureMsg announces that site Failed has crashed (§6). Drivers hand it to
// every surviving site through Deliver; algorithms without §6 recovery
// ignore it.
type FailureMsg struct {
	Failed SiteID
}

// Kind implements Message.
func (FailureMsg) Kind() string { return KindFailure }
