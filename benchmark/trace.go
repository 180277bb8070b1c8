package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"dqmx"
)

// mark is one request, enter or exit event of the hot lock, stamped with the
// benchmark's clock when the sink received it: Event.Time counts from an
// epoch private to the transport, so it cannot be compared with loader
// spans.
type mark struct {
	at   int64
	site int32
	typ  dqmx.EventType
}

// tracer is the benchmark's own TraceSink for the traced pass. It runs
// inline on the protocol's hot path, so it counts message events with one
// atomic add and takes its lock only for the three lifecycle events per CS.
type tracer struct {
	on     atomic.Bool
	events atomic.Int64

	mu    sync.Mutex
	marks []mark
}

func newTracer() *tracer { return &tracer{} }

// start begins recording; events before it (set-up, the first CS) are
// ignored.
func (t *tracer) start() {
	t.marks = make([]mark, 0, 1<<20)
	t.on.Store(true)
}

func (t *tracer) observe(e dqmx.TraceEvent) {
	if !t.on.Load() {
		return
	}
	t.events.Add(1)
	switch e.Type {
	case dqmx.EventRequest, dqmx.EventEnter, dqmx.EventExit:
		if e.Resource != lockName {
			return
		}
		at := now()
		t.mu.Lock()
		t.marks = append(t.marks, mark{at: at, site: int32(e.Site), typ: e.Type})
		t.mu.Unlock()
	}
}

// siteMarks splits the marks by site and type, each list in time order.
type siteMarks struct {
	request, enter []int64
}

func (t *tracer) bySite() map[int32]*siteMarks {
	out := map[int32]*siteMarks{}
	for _, m := range t.marks {
		sm := out[m.site]
		if sm == nil {
			sm = &siteMarks{}
			out[m.site] = sm
		}
		switch m.typ {
		case dqmx.EventRequest:
			sm.request = append(sm.request, m.at)
		case dqmx.EventEnter:
			sm.enter = append(sm.enter, m.at)
		}
	}
	for _, sm := range out {
		sort.Slice(sm.request, func(i, j int) bool { return sm.request[i] < sm.request[j] })
		sort.Slice(sm.enter, func(i, j int) bool { return sm.enter[i] < sm.enter[j] })
	}
	return out
}

// firstIn returns the first stamp of the sorted list inside [lo, hi].
func firstIn(sorted []int64, lo, hi int64) (int64, bool) {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= lo })
	if i < len(sorted) && sorted[i] <= hi {
		return sorted[i], true
	}
	return 0, false
}

// traceMetrics fills the per-layer metrics of one traced live repetition:
// counts from the metrics collectors' snapshots taken at the quiescent
// points around the load, and times from the loader's Acquire/Release spans
// split at the serving site's request and enter events.
func traceMetrics(rep *repetition, w workload, d *deployment, t *tracer, samples []csSample, after, before dqmx.MetricsSnapshot) {
	t.on.Store(false)
	m := rep.Metrics
	cs := float64(after.Exits - before.Exits)
	if cs == 0 {
		rep.fault("the traced pass saw no CS exit")
		return
	}
	byKind := map[string]uint64{}
	for k, v := range after.ByKind {
		byKind[k] = v - before.ByKind[k]
	}
	kindMetrics(m, byKind, cs)
	m["transport.retransmits_per_cs"] = float64(after.Transport.Retransmits-before.Transport.Retransmits) / cs
	m["transport.acks_per_cs"] = float64(after.Transport.AcksSent-before.Transport.AcksSent) / cs
	m["transport.dup_drops_per_cs"] = float64(after.Transport.DupSuppressed-before.Transport.DupSuppressed) / cs
	m["obs.events_per_cs"] = float64(t.events.Load()) / cs
	if w.has(layerSession) {
		m["session.overloads"] = float64(after.Sessions.Overloaded)
		m["session.expires"] = float64(after.Sessions.Expired)
		if after.Sessions.Overloaded+after.Sessions.Expired > 0 {
			rep.fault("session tier: %d overloads, %d expired sessions", after.Sessions.Overloaded, after.Sessions.Expired)
			rep.Failed += int64(after.Sessions.Overloaded + after.Sessions.Expired)
		}
	}

	// Split each Acquire span at its serving site's request and enter
	// events: caller → request is the way in, request → enter is the
	// protocol's wait, enter → return is the wake-up.
	sites := t.bySite()
	var in, wait, wake, rel []int64
	for _, s := range samples {
		sm := sites[int32(d.arbiter[s.who])]
		if sm == nil {
			continue
		}
		req, ok1 := firstIn(sm.request, s.acqStart, s.acqEnd)
		ent, ok2 := firstIn(sm.enter, req, s.acqEnd)
		if !ok1 || !ok2 {
			continue
		}
		in = append(in, req-s.acqStart)
		wait = append(wait, ent-req)
		wake = append(wake, s.acqEnd-ent)
		rel = append(rel, int64(s.relNanos))
	}
	rep.Samples["spans"] = len(in)
	if len(in) < len(samples)/2 {
		rep.fault("only %d of %d Acquire spans matched their site's events", len(in), len(samples))
	}
	inP50, waitP50, wakeP50 := us(percentile(in, 50)), us(percentile(wait, 50)), us(percentile(wake, 50))
	m["core.wait_p50_us"] = waitP50
	if w.has(layerSession) {
		m["session.in_p50_us"], m["session.out_p50_us"] = inP50, wakeP50
	} else {
		m["resource.acquire_in_p50_us"], m["resource.wake_p50_us"] = inP50, wakeP50
		m["resource.release_p50_us"] = us(percentile(rel, 50))
	}
	if w.uncontended {
		acq := m["acquire_p50_us"]
		m["loader.acquire_unaccounted_pct"] = 100 * math.Abs(acq-(inP50+waitP50+wakeP50)) / acq
	}

	// The protocol's own hand-off: an exit event to the next enter event
	// whose site had already asked.
	sort.Slice(t.marks, func(i, j int) bool { return t.marks[i].at < t.marks[j].at })
	var (
		handoff  []int64
		lastExit int64
		asked    = map[int32]int64{}
	)
	for _, mk := range t.marks {
		switch mk.typ {
		case dqmx.EventRequest:
			asked[mk.site] = mk.at
		case dqmx.EventExit:
			lastExit = mk.at
		case dqmx.EventEnter:
			if req, ok := asked[mk.site]; ok && lastExit != 0 && (req <= lastExit || w.uncontended) {
				handoff = append(handoff, mk.at-lastExit)
			}
		}
	}
	m["core.handoff_p50_us"] = us(percentile(handoff, 50))
	rep.Samples["core.handoff"] = len(handoff)
}
