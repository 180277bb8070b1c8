package sim

import (
	"fmt"
	"io"
	"strings"

	"dqmx/internal/mutex"
)

// TraceEvent is one recorded message delivery.
type TraceEvent struct {
	At   Time
	From mutex.SiteID
	To   mutex.SiteID
	Kind string
	Msg  string
}

// Recorder captures delivered envelopes for post-mortem inspection and
// message-sequence rendering. Attach it with Recorder.Attach before running;
// recording every event of a large run is memory-hungry, so a Filter can
// restrict capture.
type Recorder struct {
	// Filter, when non-nil, decides which deliveries are recorded.
	Filter func(env mutex.Envelope) bool
	// Limit caps the number of recorded events (0 = unlimited).
	Limit int

	events []TraceEvent
}

// Attach hooks the recorder into the network, chaining any previous trace
// hook.
func (r *Recorder) Attach(n *Network) {
	prev := n.Trace
	n.Trace = func(at Time, env mutex.Envelope) {
		if prev != nil {
			prev(at, env)
		}
		r.record(at, env)
	}
}

func (r *Recorder) record(at Time, env mutex.Envelope) {
	if r.Filter != nil && !r.Filter(env) {
		return
	}
	if r.Limit > 0 && len(r.events) >= r.Limit {
		return
	}
	r.events = append(r.events, TraceEvent{
		At:   at,
		From: env.From,
		To:   env.To,
		Kind: env.Kind(),
		Msg:  env.PayloadString(),
	})
}

// Events returns the recorded deliveries in order.
func (r *Recorder) Events() []TraceEvent {
	out := make([]TraceEvent, len(r.events))
	copy(out, r.events)
	return out
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// InvolvingSite filters the recording down to events touching one site.
func (r *Recorder) InvolvingSite(s mutex.SiteID) []TraceEvent {
	var out []TraceEvent
	for _, e := range r.events {
		if e.From == s || e.To == s {
			out = append(out, e)
		}
	}
	return out
}

// Render writes the trace as one line per delivery:
//
//	t=1000     0 -> 4  request(1,0)
func (r *Recorder) Render(w io.Writer) error {
	for _, e := range r.events {
		if _, err := fmt.Fprintf(w, "t=%-10d %3d -> %-3d %s\n", e.At, e.From, e.To, e.Msg); err != nil {
			return err
		}
	}
	return nil
}

// KindCounts tallies recorded events by message kind.
func (r *Recorder) KindCounts() map[string]int {
	out := make(map[string]int)
	for _, e := range r.events {
		out[e.Kind]++
	}
	return out
}

// Summary renders a one-line digest ("120 events: request=40 reply=40 …").
func (r *Recorder) Summary() string {
	counts := r.KindCounts()
	parts := make([]string, 0, len(counts))
	for _, kind := range mutex.Kinds() {
		if c := counts[kind]; c > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", kind, c))
		}
	}
	return fmt.Sprintf("%d events: %s", len(r.events), strings.Join(parts, " "))
}
