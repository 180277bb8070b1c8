package obs

import (
	"strings"
	"sync"
	"testing"

	"dqmx/internal/mutex"
)

func TestTee(t *testing.T) {
	if Tee(nil, nil) != nil {
		t.Error("Tee of nils should be nil")
	}
	var got []EventType
	one := func(e Event) { got = append(got, e.Type) }
	Tee(nil, one)(Event{Type: EventEnter})
	Tee(one, one)(Event{Type: EventExit})
	want := []EventType{EventEnter, EventExit, EventExit}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{Type: EventSend, Site: 3, Peer: 5, Kind: mutex.KindRequest, Time: 1000}
	if s := e.String(); !strings.Contains(s, "send request -> 5") {
		t.Errorf("send event rendered as %q", s)
	}
	if s := (Event{Type: EventEnter, Site: 1}).String(); !strings.Contains(s, "enter") {
		t.Errorf("enter event rendered as %q", s)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Error("empty histogram should report zeros")
	}
	for _, v := range []int64{1, 2, 3, 100, 1000} {
		h.Add(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Mean(), float64(1+2+3+100+1000)/5; got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
	st := h.Stats()
	if st.Min != 1 || st.Max != 1000 {
		t.Errorf("min/max = %d/%d", st.Min, st.Max)
	}
	// P99 must land in the top bucket and be clamped to the observed max.
	if st.P99 != 1000 {
		t.Errorf("p99 = %d, want 1000", st.P99)
	}
	// The median of {1,2,3,100,1000} is 3; the log-bucket upper bound for
	// bit-length 2 is 3.
	if st.P50 != 3 {
		t.Errorf("p50 = %d, want 3", st.P50)
	}
	h.Add(-5) // clock skew clamps to zero
	if h.Stats().Min != 0 {
		t.Error("negative sample should clamp to 0")
	}
}

// TestMetricsLifecycle drives the collector through two CS executions where
// the second requester waits behind the first, and checks every aggregate.
func TestMetricsLifecycle(t *testing.T) {
	m := NewMetrics()
	emit := m.Observe
	// Site 0: request at t=0, two sends, enter at 10, exit at 20.
	emit(Event{Type: EventRequest, Site: 0, Time: 0})
	emit(Event{Type: EventSend, Site: 0, Peer: 1, Kind: mutex.KindRequest, Time: 0})
	emit(Event{Type: EventSend, Site: 0, Peer: 2, Kind: mutex.KindRequest, Time: 0})
	emit(Event{Type: EventEnter, Site: 0, Time: 10})
	// Site 1 requests at t=5 (while 0 holds the CS).
	emit(Event{Type: EventRequest, Site: 1, Time: 5})
	emit(Event{Type: EventExit, Site: 0, Time: 20})
	// Site 1 enters one delay later: a synchronization-delay handover.
	emit(Event{Type: EventEnter, Site: 1, Time: 30})
	emit(Event{Type: EventExit, Site: 1, Time: 40})
	emit(Event{Type: EventFailure, Site: 2, Peer: 3, Time: 50})
	emit(Event{Type: EventRecovery, Site: 2, Peer: 3, Time: 55})

	s := m.Snapshot()
	if s.Requests != 2 || s.Entries != 2 || s.Exits != 2 {
		t.Errorf("lifecycle counters = %d/%d/%d", s.Requests, s.Entries, s.Exits)
	}
	if s.Messages != 2 || s.ByKind[mutex.KindRequest] != 2 {
		t.Errorf("messages = %d byKind = %v", s.Messages, s.ByKind)
	}
	if s.MessagesPerCS != 1 {
		t.Errorf("messages/CS = %v", s.MessagesPerCS)
	}
	if s.Failures != 1 || s.Recoveries != 1 {
		t.Errorf("failures/recoveries = %d/%d", s.Failures, s.Recoveries)
	}
	// Response: site 0 = 20, site 1 = 35. Waiting: 10 and 25.
	if s.Response.Count != 2 || s.Response.Mean != 27.5 {
		t.Errorf("response = %+v", s.Response)
	}
	if s.Waiting.Count != 2 || s.Waiting.Mean != 17.5 {
		t.Errorf("waiting = %+v", s.Waiting)
	}
	// One handover: site 1 requested (5) before site 0 exited (20) and
	// entered at 30 → sample 10.
	if s.SyncDelay.Count != 1 || s.SyncDelay.Mean != 10 {
		t.Errorf("sync delay = %+v", s.SyncDelay)
	}
	if got := s.Kinds(); len(got) != 1 || got[0] != mutex.KindRequest {
		t.Errorf("kinds = %v", got)
	}
}

// TestMetricsUncontendedNoSyncSample checks the paper's definition: an entry
// whose request came after the previous exit is not a handover.
func TestMetricsUncontendedNoSyncSample(t *testing.T) {
	m := NewMetrics()
	m.Observe(Event{Type: EventRequest, Site: 0, Time: 0})
	m.Observe(Event{Type: EventEnter, Site: 0, Time: 10})
	m.Observe(Event{Type: EventExit, Site: 0, Time: 20})
	m.Observe(Event{Type: EventRequest, Site: 1, Time: 100}) // after the exit
	m.Observe(Event{Type: EventEnter, Site: 1, Time: 110})
	m.Observe(Event{Type: EventExit, Site: 1, Time: 120})
	if s := m.Snapshot(); s.SyncDelay.Count != 0 {
		t.Errorf("uncontended run took %d sync samples", s.SyncDelay.Count)
	}
}

// TestMetricsUncontendedWaiting: an uncontended entry still waits from its
// request to its entry. Each of two back-to-back uncontended executions
// takes a waiting and a response sample when it completes, while neither
// entry is a handover.
func TestMetricsUncontendedWaiting(t *testing.T) {
	m := NewMetrics()
	m.Observe(Event{Type: EventRequest, Site: 0, Time: 0})
	m.Observe(Event{Type: EventEnter, Site: 0, Time: 10})
	m.Observe(Event{Type: EventExit, Site: 0, Time: 20})
	m.Observe(Event{Type: EventRequest, Site: 1, Time: 100}) // after the exit
	m.Observe(Event{Type: EventEnter, Site: 1, Time: 110})
	m.Observe(Event{Type: EventExit, Site: 1, Time: 120})
	s := m.Snapshot()
	if s.Waiting.Count != 2 || s.Waiting.Mean != 10 {
		t.Errorf("waiting: %d samples, mean %v; want 2 samples, mean 10", s.Waiting.Count, s.Waiting.Mean)
	}
	if s.Response.Count != 2 || s.Response.Mean != 20 {
		t.Errorf("response: %d samples, mean %v; want 2 samples, mean 20", s.Response.Count, s.Response.Mean)
	}
	if s.SyncDelay.Count != 0 {
		t.Errorf("uncontended run took %d sync samples", s.SyncDelay.Count)
	}
}

// TestMetricsPerResourcePairing: handovers pair within one resource. An
// entry on b that follows an exit on a in time is no handover, in
// SnapshotResource or in the merged Snapshot.
func TestMetricsPerResourcePairing(t *testing.T) {
	m := NewMetrics()
	m.Observe(Event{Type: EventRequest, Site: 0, Resource: "a", Time: 0})
	m.Observe(Event{Type: EventRequest, Site: 1, Resource: "b", Time: 0})
	m.Observe(Event{Type: EventEnter, Site: 0, Resource: "a", Time: 10})
	m.Observe(Event{Type: EventExit, Site: 0, Resource: "a", Time: 20})
	m.Observe(Event{Type: EventEnter, Site: 1, Resource: "b", Time: 30})
	for _, name := range []string{"a", "b"} {
		s, ok := m.SnapshotResource(name)
		if !ok || s.Entries != 1 {
			t.Fatalf("resource %q: ok=%v entries=%d", name, ok, s.Entries)
		}
		if s.SyncDelay.Count != 0 {
			t.Errorf("resource %q: %d cross-resource sync samples", name, s.SyncDelay.Count)
		}
	}
	if s := m.Snapshot(); s.SyncDelay.Count != 0 {
		t.Errorf("merged snapshot: %d cross-resource sync samples", s.SyncDelay.Count)
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Observe(Event{Type: EventSend, Site: mutex.SiteID(g), Peer: 0, Kind: mutex.KindReply, Time: int64(i)})
			}
		}()
	}
	wg.Wait()
	if s := m.Snapshot(); s.Messages != 8000 || s.ByKind[mutex.KindReply] != 8000 {
		t.Errorf("concurrent messages = %d", s.Messages)
	}
}

func TestRing(t *testing.T) {
	r := NewRing(3)
	if got := r.Events(); len(got) != 0 {
		t.Errorf("fresh ring has %d events", len(got))
	}
	for i := 1; i <= 5; i++ {
		r.Observe(Event{Time: int64(i)})
	}
	got := r.Events()
	if len(got) != 3 || got[0].Time != 3 || got[2].Time != 5 {
		t.Errorf("ring events = %+v", got)
	}
}

func BenchmarkMetricsObserveSend(b *testing.B) {
	b.ReportAllocs()
	m := NewMetrics()
	e := Event{Type: EventSend, Site: 1, Peer: 2, Kind: mutex.KindRequest}
	for i := 0; i < b.N; i++ {
		e.Time = int64(i)
		m.Observe(e)
	}
}
