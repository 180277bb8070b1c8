package obs

import (
	"sync"

	"dqmx/internal/mutex"
)

// DelayTracker derives the two components of acquire latency from the live
// event stream, per resource, exactly as the Metrics aggregator does —
// queue wait is request→entry, handoff delay is previous-exit→entry over
// handovers where the entering site was already waiting — but gates sample
// recording behind an explicit measurement window. The load-generation lab
// (internal/loadgen) installs one per run: pairing state is maintained from
// the first event so the derivation stays correct across phase boundaries,
// while only entries observed between StartRecording and StopRecording
// contribute samples. That is what keeps warmup and drain traffic out of
// the reported percentiles.
//
// It is a Sink (Observe) and safe for concurrent use; live drivers run one
// goroutine per site, all feeding the same tracker.
type DelayTracker struct {
	mu        sync.Mutex
	recording bool
	res       map[string]*pairing
	handoff   Histogram
	waiting   Histogram
}

// pairing is one resource's handover state, the same for Metrics and
// DelayTracker: each waiting site's request instant and the last exit.
type pairing struct {
	requested map[mutex.SiteID]int64
	lastExit  int64
	haveExit  bool
}

func newPairing() *pairing {
	return &pairing{requested: make(map[mutex.SiteID]int64)}
}

// handoff pairs an entry at t by a site that requested at req with the last
// exit. It reports the exit→entry delay and whether the entry was a
// handover: the site was already waiting when the previous holder exited
// (requested ≤ last exit ≤ entry, the paper's heavy-load
// synchronization-delay definition).
func (p *pairing) handoff(req, t int64) (int64, bool) {
	if p.haveExit && req <= p.lastExit && t >= p.lastExit {
		return t - p.lastExit, true
	}
	return 0, false
}

// exit records an exit at t.
func (p *pairing) exit(t int64) {
	p.lastExit = t
	p.haveExit = true
}

// NewDelayTracker returns a tracker with recording off.
func NewDelayTracker() *DelayTracker {
	return &DelayTracker{res: make(map[string]*pairing)}
}

// StartRecording opens the measurement window: subsequent entries sample.
func (t *DelayTracker) StartRecording() {
	t.mu.Lock()
	t.recording = true
	t.mu.Unlock()
}

// StopRecording closes the measurement window.
func (t *DelayTracker) StopRecording() {
	t.mu.Lock()
	t.recording = false
	t.mu.Unlock()
}

// Observe folds one event into the tracker; it is the tracker's Sink.
func (t *DelayTracker) Observe(e Event) {
	switch e.Type {
	case EventRequest, EventEnter, EventExit:
	default:
		return // message and transport events carry no delay information
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.res[e.Resource]
	if !ok {
		r = newPairing()
		t.res[e.Resource] = r
	}
	switch e.Type {
	case EventRequest:
		r.requested[e.Site] = e.Time
	case EventEnter:
		req, waited := r.requested[e.Site]
		delete(r.requested, e.Site)
		if !t.recording || !waited {
			return
		}
		t.waiting.Add(e.Time - req)
		if d, ok := r.handoff(req, e.Time); ok {
			t.handoff.Add(d)
		}
	case EventExit:
		r.exit(e.Time)
	}
}

// Handoff summarizes the recorded handoff-delay (exit→next-entry) samples.
func (t *DelayTracker) Handoff() DelayStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.handoff.Stats()
}

// Waiting summarizes the recorded queue-wait (request→entry) samples.
func (t *DelayTracker) Waiting() DelayStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.waiting.Stats()
}
