package mutex

import "testing"

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
