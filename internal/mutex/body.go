package mutex

import (
	"fmt"

	"dqmx/internal/timestamp"
)

// BodyKind tags an Envelope's inline payload: one of the paper's seven §3.1
// control messages, one of the session tier's two lock frames, or BodyNone
// when the payload (if any) is in Envelope.Msg. The values double as the
// messages' wire-v1 tags, so they are frozen.
type BodyKind uint8

const (
	BodyNone BodyKind = iota
	BodyRequest
	BodyReply
	BodyRelease
	BodyInquire
	BodyFail
	BodyYield
	BodyTransfer
)

// The lock request and reply of internal/session, the two frames of a
// client's critical section, in the session tag range.
const (
	BodySessLockReq BodyKind = 51
	BodySessLockRep BodyKind = 52
)

// bodyKindNames maps a BodyKind to its accounting name.
var bodyKindNames = [...]string{
	BodyRequest:     KindRequest,
	BodyReply:       KindReply,
	BodyRelease:     KindRelease,
	BodyInquire:     KindInquire,
	BodyFail:        KindFail,
	BodyYield:       KindYield,
	BodyTransfer:    KindTransfer,
	BodySessLockReq: "sess-lock-req",
	BodySessLockRep: "sess-lock-rep",
}

// Body is a §3.1 control message carried by value inside its Envelope. The
// protocol prices a critical section in messages — 3(K−1)..6(K−1) of them —
// so the closed set that makes up that count travels without a heap object
// per message: fixed size, no pointers, and an Envelope copy is a complete
// message. Nothing is ever recycled; retransmission queues, the chaos
// fabric's duplicates and the model checker's clones all hold plain copies.
//
// One flag, two site ids and two timestamps cover every shape of the seven
// messages except the §6 refresh request, whose variable-length dead-set
// travels in Envelope.Msg. The session tier's lock frames borrow the same
// slots; a reply with an error text travels in Envelope.Msg:
//
//	kind           Flag        Site            Site2           TS        TS2
//	request        —           —               —               TS        —
//	reply          +transfer   arbiter         transfer's arb  ReqTS     transfer's TargetTS
//	release        withdraw    Fwd (or None)   —               ReqTS     FwdTS
//	inquire        —           arbiter         —               HolderTS  —
//	fail           —           arbiter         —               ReqTS     —
//	yield          —           —               —               ReqTS     —
//	transfer       +inquire    arbiter         —               HolderTS  TargetTS
//	sess-lock-req  —           op              —               TS.Seq = request ID
//	sess-lock-rep  OK          —               —               TS.Seq = request ID
//
// internal/core and internal/session own the conversion to and from their
// message structs and the wire layout; this package only names the slots.
type Body struct {
	Kind  BodyKind
	Flag  bool
	Site  SiteID
	Site2 SiteID
	TS    timestamp.Timestamp
	TS2   timestamp.Timestamp
}

// String renders the message the way traces print it. The piggybacked part
// of a reply and the withdraw mark of a release are deliberately not shown:
// the format predates the inline body and recorded traces rest on it.
func (b Body) String() string {
	switch b.Kind {
	case BodyRequest:
		return fmt.Sprintf("request%v", b.TS)
	case BodyReply:
		return fmt.Sprintf("reply(arb=%d,%v)", b.Site, b.TS)
	case BodyRelease:
		if b.Site == timestamp.None {
			return fmt.Sprintf("release(%v)", b.TS)
		}
		return fmt.Sprintf("release(%v,fwd=%v)", b.TS, b.TS2)
	case BodyInquire:
		return fmt.Sprintf("inquire(arb=%d)", b.Site)
	case BodyFail:
		return fmt.Sprintf("fail(arb=%d,%v)", b.Site, b.TS)
	case BodyYield:
		return fmt.Sprintf("yield(%v)", b.TS)
	case BodyTransfer:
		s := fmt.Sprintf("transfer(arb=%d,to=%v)", b.Site, b.TS2)
		if b.Flag {
			s += "+inquire"
		}
		return s
	case BodySessLockReq:
		return fmt.Sprintf("sess-lock-req(req=%d,op=%d)", b.TS.Seq, b.Site)
	case BodySessLockRep:
		return fmt.Sprintf("sess-lock-rep(req=%d,ok=%v)", b.TS.Seq, b.Flag)
	}
	return fmt.Sprintf("body(%d)", b.Kind)
}

// HasPayload reports whether the envelope carries a message at all. Only
// the reliable sublayer's standalone ack frames do not.
func (e Envelope) HasPayload() bool {
	return e.Body.Kind != BodyNone || e.Msg != nil
}

// Kind returns the payload's accounting name whichever way it is carried,
// or "" for an envelope without a payload.
func (e Envelope) Kind() string {
	if k := e.Body.Kind; k != BodyNone {
		if int(k) < len(bodyKindNames) {
			return bodyKindNames[k]
		}
		return ""
	}
	if e.Msg != nil {
		return e.Msg.Kind()
	}
	return ""
}

// PayloadString renders the payload for traces and diagnostics.
func (e Envelope) PayloadString() string {
	if e.Body.Kind != BodyNone {
		return e.Body.String()
	}
	return fmt.Sprintf("%v", e.Msg)
}
