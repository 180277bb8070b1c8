package mutex

import (
	"testing"

	"dqmx/internal/timestamp"
)

type fakeMsg struct{ kind string }

func (m fakeMsg) Kind() string { return m.kind }

func TestOutputSendTo(t *testing.T) {
	var out Output
	out.SendTo(1, 2, fakeMsg{"request"})
	out.SendTo(1, 3, fakeMsg{"reply"})
	if len(out.Send) != 2 {
		t.Fatalf("Send len = %d", len(out.Send))
	}
	if out.Send[0].From != 1 || out.Send[0].To != 2 || out.Send[0].Msg.Kind() != "request" {
		t.Errorf("first envelope wrong: %+v", out.Send[0])
	}
	if out.Entered {
		t.Error("SendTo must not set Entered")
	}
}

func TestFailureMsgKind(t *testing.T) {
	if got := (FailureMsg{Failed: 3}).Kind(); got != KindFailure {
		t.Errorf("Kind = %q", got)
	}
}

func TestKindConstantsDistinct(t *testing.T) {
	kinds := []string{
		KindRequest, KindReply, KindRelease, KindInquire,
		KindFail, KindYield, KindTransfer, KindToken, KindFailure,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		if seen[k] {
			t.Errorf("duplicate kind %q", k)
		}
		seen[k] = true
	}
}

func TestEnvelopeCarriers(t *testing.T) {
	ts := timestamp.Timestamp{Seq: 4, Site: 2}
	for _, tc := range []struct {
		env     Envelope
		payload bool
		kind    string
		text    string
	}{
		{Envelope{Ack: 9}, false, "", "<nil>"}, // a standalone ack frame
		{Envelope{Msg: FailureMsg{Failed: 3}}, true, KindFailure, "{3}"},
		{Envelope{Body: Body{Kind: BodyRequest, TS: ts}}, true, KindRequest, "request(4,2)"},
		{Envelope{Body: Body{Kind: BodyReply, Flag: true, Site: 1, Site2: 1, TS: ts, TS2: ts}}, true, KindReply, "reply(arb=1,(4,2))"},
		{Envelope{Body: Body{Kind: BodyRelease, Site: timestamp.None, TS: ts}}, true, KindRelease, "release((4,2))"},
		{Envelope{Body: Body{Kind: BodyRelease, Flag: true, Site: 5, TS: ts, TS2: timestamp.Timestamp{Seq: 6, Site: 5}}}, true, KindRelease, "release((4,2),fwd=(6,5))"},
		{Envelope{Body: Body{Kind: BodyInquire, Site: 1, TS: ts}}, true, KindInquire, "inquire(arb=1)"},
		{Envelope{Body: Body{Kind: BodyFail, Site: 1, TS: ts}}, true, KindFail, "fail(arb=1,(4,2))"},
		{Envelope{Body: Body{Kind: BodyYield, TS: ts}}, true, KindYield, "yield((4,2))"},
		{Envelope{Body: Body{Kind: BodyTransfer, Site: 1, TS: ts, TS2: timestamp.Max}}, true, KindTransfer, "transfer(arb=1,to=(max,max))"},
		{Envelope{Body: Body{Kind: BodyTransfer, Flag: true, Site: 1, TS: ts, TS2: timestamp.Max}}, true, KindTransfer, "transfer(arb=1,to=(max,max))+inquire"},
	} {
		if got := tc.env.HasPayload(); got != tc.payload {
			t.Errorf("%+v: HasPayload = %v", tc.env, got)
		}
		if got := tc.env.Kind(); got != tc.kind {
			t.Errorf("%+v: Kind = %q, want %q", tc.env, got, tc.kind)
		}
		if got := tc.env.PayloadString(); got != tc.text {
			t.Errorf("%+v: PayloadString = %q, want %q", tc.env, got, tc.text)
		}
	}
}
