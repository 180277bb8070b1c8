// Package obs is the protocol observability layer: a structured event
// stream fed by every driver (the discrete-event simulator, the in-process
// site loop, and the TCP peer) plus an aggregator that folds the stream into
// the paper's metrics — per-kind message counters, synchronization delay,
// response time, and waiting time.
//
// The design goal is zero cost when disabled: drivers hold a nil Sink and
// guard every emission with a single nil check, so the hot path neither
// allocates nor synchronizes unless an observer is installed. Events are
// plain value structs; emitting one is a function call with no heap traffic.
//
// Timestamps are int64s in whatever unit the driver counts time: simulated
// ticks for internal/sim, Now for everything live. The aggregator only ever
// subtracts timestamps, so the unit cancels out of every ratio-of-T metric
// and only scales the delay stats.
package obs

import (
	"fmt"

	"dqmx/internal/clock"
	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
)

// Now is the live event stamp: monotonic nanoseconds since process start on
// clock.Real, the clock of every live timer. Every live emitter stamps its
// events with it, so one Observer fed by several of them sees one time line.
func Now() int64 { return int64(clock.Real.Elapsed()) }

// EventType enumerates the protocol lifecycle events drivers emit.
type EventType uint8

// Protocol event types. Message events carry the message kind (request,
// reply, transfer, inquire, yield, fail, release, token, failure), so the
// per-kind accounting of the paper's tables falls out of the Send stream.
const (
	// EventRequest marks a site issuing a critical-section request.
	EventRequest EventType = iota + 1
	// EventSend marks one protocol message leaving a site for another
	// site (a site never addresses one to itself, mutex.Envelope).
	EventSend
	// EventEnter marks a site entering the critical section.
	EventEnter
	// EventExit marks a site exiting the critical section.
	EventExit
	// EventFailure marks the delivery of a failure(f) notification to a
	// site (Peer is the failed site).
	EventFailure
	// EventRecovery marks a site completing its local §6 recovery step for
	// a failed peer (quorum rebuilt around the crash).
	EventRecovery
	// EventRetransmit marks the reliable-delivery sublayer re-sending an
	// unacknowledged envelope. Transport-level: it never counts toward the
	// protocol's per-CS message accounting.
	EventRetransmit
	// EventDupDrop marks the receiver suppressing an already-delivered
	// (duplicate) envelope. Transport-level.
	EventDupDrop
	// EventAckSend marks a standalone cumulative acknowledgement leaving a
	// site after an idle flush, or a gap report (piggybacked acks are not
	// reported). Transport-level.
	EventAckSend
	// EventSessionOpen marks an arbiter granting a new client session lease
	// (Site is the arbiter). Service-level: session events never count
	// toward the protocol's per-CS message accounting.
	EventSessionOpen
	// EventSessionExpire marks an arbiter expiring a client session whose
	// lease ran out without renewal. Service-level.
	EventSessionExpire
	// EventSessionClose marks an orderly client session shutdown.
	// Service-level.
	EventSessionClose
	// EventLockReclaim marks the arbiter releasing a lock held by an
	// expired session (Resource names the lock), feeding the grant back
	// into the quorum protocol for the next waiter. Service-level.
	EventLockReclaim
	// EventOverload marks the arbiter refusing work for backpressure: a new
	// session past the session cap or an acquire past the per-session
	// in-flight cap. The client backs off and retries. Service-level.
	EventOverload
)

// String returns the event type's stable name.
func (t EventType) String() string {
	switch t {
	case EventRequest:
		return "request"
	case EventSend:
		return "send"
	case EventEnter:
		return "enter"
	case EventExit:
		return "exit"
	case EventFailure:
		return "failure"
	case EventRecovery:
		return "recovery"
	case EventRetransmit:
		return "retransmit"
	case EventDupDrop:
		return "dup-drop"
	case EventAckSend:
		return "ack"
	case EventSessionOpen:
		return "session-open"
	case EventSessionExpire:
		return "session-expire"
	case EventSessionClose:
		return "session-close"
	case EventLockReclaim:
		return "lock-reclaim"
	case EventOverload:
		return "overload"
	default:
		return fmt.Sprintf("event(%d)", uint8(t))
	}
}

// Event is one structured protocol event.
type Event struct {
	// Type is the lifecycle event type.
	Type EventType
	// Site is the site at which the event occurred.
	Site mutex.SiteID
	// Peer is the message destination (EventSend) or the failed site
	// (EventFailure, EventRecovery); otherwise it is unused.
	Peer mutex.SiteID
	// Kind is the message kind for EventSend events.
	Kind string
	// Time is the driver timestamp: simulated ticks under internal/sim;
	// on live clusters, peers and session servers, Now — monotonic
	// nanoseconds since process start, one clock for every live emitter in
	// the process.
	Time int64
	// Resource names the lock the event belongs to when many named locks
	// are multiplexed over one site set. The empty string is the default
	// resource (single-lock deployments and the simulator).
	Resource string
	// ReqTS is the protocol's logical request timestamp for EventRequest
	// events, when the site exposes one (mutex.TimestampedSite). The zero
	// value means the timestamp is unavailable; conformance checkers must
	// then skip timestamp-order assertions for the request.
	ReqTS timestamp.Timestamp
}

// String renders the event as one trace line.
func (e Event) String() string {
	suffix := ""
	if e.Resource != "" {
		suffix = fmt.Sprintf("  [%s]", e.Resource)
	}
	switch e.Type {
	case EventSend:
		return fmt.Sprintf("t=%-12d site %-3d send %s -> %d%s", e.Time, e.Site, e.Kind, e.Peer, suffix)
	case EventFailure:
		return fmt.Sprintf("t=%-12d site %-3d observed failure of %d%s", e.Time, e.Site, e.Peer, suffix)
	case EventRecovery:
		return fmt.Sprintf("t=%-12d site %-3d recovered around %d%s", e.Time, e.Site, e.Peer, suffix)
	default:
		return fmt.Sprintf("t=%-12d site %-3d %s%s", e.Time, e.Site, e.Type, suffix)
	}
}

// Sink receives protocol events. Sinks run inline on the driver's hot path:
// implementations must be fast and must not block. A nil Sink means
// observability is disabled.
type Sink func(Event)

// Tee fans one event stream out to several sinks, skipping nil entries. It
// returns nil when every sink is nil (keeping the disabled fast path a
// single nil check) and the sink itself when only one remains.
func Tee(sinks ...Sink) Sink {
	live := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(e Event) {
		for _, s := range live {
			s(e)
		}
	}
}
