package sim

import (
	"strings"
	"testing"

	"dqmx/internal/mutex"
)

func runTraced(t *testing.T, rec *Recorder) {
	t.Helper()
	var k Kernel
	net := NewNetwork(&k, 4, ConstantDelay{D: 10}, 1, func(mutex.Envelope) {})
	rec.Attach(net)
	net.Send(mutex.Envelope{From: 0, To: 1, Msg: fakeMsg{"request", 1}})
	net.Send(mutex.Envelope{From: 1, To: 0, Msg: fakeMsg{"reply", 2}})
	net.Send(mutex.Envelope{From: 0, To: 2, Msg: fakeMsg{"request", 3}})
	k.Run(0)
}

func TestRecorderCapturesDeliveries(t *testing.T) {
	var rec Recorder
	runTraced(t, &rec)
	if rec.Len() != 3 {
		t.Fatalf("Len = %d, want 3", rec.Len())
	}
	events := rec.Events()
	if events[0].Kind != "request" || events[0].From != 0 || events[0].To != 1 {
		t.Errorf("first event = %+v", events[0])
	}
	if events[0].At != 10 {
		t.Errorf("delivery time = %d, want 10", events[0].At)
	}
	counts := rec.KindCounts()
	if counts["request"] != 2 || counts["reply"] != 1 {
		t.Errorf("KindCounts = %v", counts)
	}
}

func TestRecorderFilterAndLimit(t *testing.T) {
	rec := Recorder{
		Filter: func(env mutex.Envelope) bool { return env.Msg.Kind() == "request" },
		Limit:  1,
	}
	runTraced(t, &rec)
	if rec.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (filter + limit)", rec.Len())
	}
	if rec.Events()[0].Kind != "request" {
		t.Errorf("filtered event kind = %s", rec.Events()[0].Kind)
	}
}

func TestRecorderInvolvingSite(t *testing.T) {
	var rec Recorder
	runTraced(t, &rec)
	got := rec.InvolvingSite(2)
	if len(got) != 1 || got[0].To != 2 {
		t.Fatalf("InvolvingSite(2) = %v", got)
	}
}

func TestRecorderRenderAndSummary(t *testing.T) {
	var rec Recorder
	runTraced(t, &rec)
	var b strings.Builder
	if err := rec.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "0 -> 1") || !strings.Contains(out, "t=10") {
		t.Errorf("render output:\n%s", out)
	}
	sum := rec.Summary()
	if !strings.Contains(sum, "3 events") || !strings.Contains(sum, "request=2") {
		t.Errorf("summary = %q", sum)
	}
}

func TestRecorderChainsExistingTraceHook(t *testing.T) {
	var k Kernel
	prevCalls := 0
	net := NewNetwork(&k, 4, ConstantDelay{D: 1}, 1, func(mutex.Envelope) {})
	net.Trace = func(Time, mutex.Envelope) { prevCalls++ }
	var rec Recorder
	rec.Attach(net)
	net.Send(mutex.Envelope{From: 0, To: 1, Msg: fakeMsg{"request", 1}})
	k.Run(0)
	if prevCalls != 1 || rec.Len() != 1 {
		t.Fatalf("prev hook calls = %d, recorded = %d; want 1/1", prevCalls, rec.Len())
	}
}
