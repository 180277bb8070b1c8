package obs

import (
	"sort"
	"sync"

	"dqmx/internal/hist"
	"dqmx/internal/mutex"
)

// Histogram is the repository's log-linear latency histogram
// (internal/hist): constant-size, allocation-free on Add, mergeable, with
// ≤ 6.25% quantile error.
type Histogram = hist.Histogram

// DelayStats reports one delay distribution in the driver's time unit
// (simulated ticks or nanoseconds). P50/P90/P95/P99 are log-linear-bucket
// upper bounds, exact at the maximum.
type DelayStats = hist.Summary

// TransportStats counts the reliable-delivery sublayer's own traffic. It is
// collector-global (the sublayer multiplexes every resource over one set of
// site-pair streams) and deliberately separate from the protocol counters:
// retransmissions, duplicate suppressions, and standalone acks never touch
// Messages or ByKind, so the paper's 3(K−1)..6(K−1) accounting stays exact.
type TransportStats struct {
	// Retransmits counts envelopes re-sent after an acknowledgement timeout.
	Retransmits uint64
	// DupSuppressed counts received envelopes dropped as already delivered.
	DupSuppressed uint64
	// AcksSent counts standalone cumulative acknowledgements (piggybacked
	// acks ride existing messages and are not counted).
	AcksSent uint64
}

// SessionStats counts lock-service session lifecycle events. Like
// TransportStats it is collector-global: the session tier sits above the
// resource layer (one session may hold many named locks), so the counters
// never touch the per-resource protocol accounting.
type SessionStats struct {
	// Opened counts granted session leases (new sessions, not renewals).
	Opened uint64
	// Expired counts sessions whose lease ran out without renewal.
	Expired uint64
	// Closed counts orderly session shutdowns.
	Closed uint64
	// LocksReclaimed counts locks released on behalf of expired sessions —
	// each reclaim hands the grant to the next waiter through the normal
	// protocol path.
	LocksReclaimed uint64
	// Overloaded counts work the arbiter refused for backpressure: session
	// opens past the session cap and acquires past the per-session
	// in-flight cap. Clients back off and retry, so a nonzero rate here
	// means sustained demand above what the arbiter is provisioned for.
	Overloaded uint64
}

// Snapshot is a point-in-time copy of the aggregated metrics.
type Snapshot struct {
	// Events is the total number of observed events.
	Events uint64
	// Messages counts protocol messages sent to remote sites; ByKind breaks
	// the total down by message kind (the paper's per-type accounting).
	Messages uint64
	ByKind   map[string]uint64
	// Requests, Entries, Exits count CS lifecycle milestones; Exits is the
	// number of completed executions.
	Requests uint64
	Entries  uint64
	Exits    uint64
	// Failures counts delivered failure notifications; Recoveries counts
	// completed per-site §6 recovery steps.
	Failures   uint64
	Recoveries uint64
	// MessagesPerCS is Messages / Exits — the paper's headline cost, which
	// for the delay-optimal protocol must land in 3(K−1)..6(K−1).
	MessagesPerCS float64
	// SyncDelay is the exit→next-entry delay measured only over handovers
	// where the next site was already waiting (the paper's heavy-load
	// definition of synchronization delay).
	SyncDelay DelayStats
	// Response is the request→exit delay; Waiting is request→entry.
	Response DelayStats
	Waiting  DelayStats
	// Transport reports the reliability sublayer's health. Like Events it is
	// collector-global, so SnapshotResource repeats the same totals. It stays
	// zero on a plain in-process cluster, which runs no sublayer.
	Transport TransportStats
	// Sessions reports lock-service session lifecycle totals. Collector-
	// global, like Transport.
	Sessions SessionStats
}

// Kinds returns the snapshot's message kinds in canonical table order
// followed by any others alphabetically.
func (s Snapshot) Kinds() []string {
	out := make([]string, 0, len(s.ByKind))
	seen := make(map[string]bool, len(s.ByKind))
	for _, k := range mutex.Kinds() {
		if s.ByKind[k] > 0 {
			out = append(out, k)
			seen[k] = true
		}
	}
	var extra []string
	for k := range s.ByKind {
		if !seen[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// Metrics aggregates the event stream into the paper's metrics. It is safe
// for concurrent use: live drivers run one goroutine per site, all feeding
// the same collector.
//
// Events are bucketed by Event.Resource, so when many named locks are
// multiplexed over one site set each lock's 3(K−1)..6(K−1) bound stays
// checkable on its own through SnapshotResource. Snapshot merges every
// per-resource aggregate into the cluster-wide view; single-lock runs have
// exactly one bucket (the default resource) and behave as before.
//
// The per-resource delay accounting mirrors sim.Cluster.Summarize: response
// time is request→exit, waiting time is request→entry, and a
// synchronization-delay sample is taken on each entry that follows a
// completed exit the entering site was already waiting behind
// (requested ≤ previous exit ≤ entry). Within one resource entries and exits
// alternate under mutual exclusion, so tracking the last exit timestamp
// reproduces the simulator's record-pairing exactly on crash-free runs; a
// crash inside the CS leaves the interrupted execution out of the delay
// stats, just as Summarize drops its record.
type Metrics struct {
	mu        sync.Mutex
	events    uint64
	transport TransportStats
	sessions  SessionStats
	res       map[string]*resourceAgg
}

// resourceAgg is the per-resource accumulator; all fields are guarded by the
// owning Metrics' mutex.
type resourceAgg struct {
	messages   uint64
	byKind     map[string]uint64
	requests   uint64
	entries    uint64
	exits      uint64
	failures   uint64
	recoveries uint64

	// requested and entered hold each waiting site's request and entry
	// instants; lastExit is the last exit, once haveExit.
	requested map[mutex.SiteID]int64
	entered   map[mutex.SiteID]int64
	lastExit  int64
	haveExit  bool

	syncDelay Histogram
	response  Histogram
	waiting   Histogram
}

func newResourceAgg() *resourceAgg {
	return &resourceAgg{
		byKind:    make(map[string]uint64),
		requested: make(map[mutex.SiteID]int64),
		entered:   make(map[mutex.SiteID]int64),
	}
}

// NewMetrics returns an empty collector.
func NewMetrics() *Metrics {
	return &Metrics{res: make(map[string]*resourceAgg)}
}

// Observe folds one event into the metrics; it is the collector's Sink.
func (m *Metrics) Observe(e Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.events++
	// Transport-level events carry no resource: they feed the global
	// reliability counters and must never reach the per-resource message
	// accounting below.
	switch e.Type {
	case EventRetransmit:
		m.transport.Retransmits++
		return
	case EventDupDrop:
		m.transport.DupSuppressed++
		return
	case EventAckSend:
		m.transport.AcksSent++
		return
	// Service-level session events are likewise collector-global: a session
	// spans resources, so only EventLockReclaim even carries a Resource, and
	// none of them may leak into the per-resource protocol tallies.
	case EventSessionOpen:
		m.sessions.Opened++
		return
	case EventSessionExpire:
		m.sessions.Expired++
		return
	case EventSessionClose:
		m.sessions.Closed++
		return
	case EventLockReclaim:
		m.sessions.LocksReclaimed++
		return
	case EventOverload:
		m.sessions.Overloaded++
		return
	}
	a, ok := m.res[e.Resource]
	if !ok {
		a = newResourceAgg()
		m.res[e.Resource] = a
	}
	switch e.Type {
	case EventRequest:
		a.requests++
		a.requested[e.Site] = e.Time
	case EventSend:
		a.messages++
		a.byKind[e.Kind]++
	case EventEnter:
		a.entries++
		a.entered[e.Site] = e.Time
		// A handover: the site was already waiting when the previous
		// holder exited (requested ≤ last exit ≤ entry).
		if req, ok := a.requested[e.Site]; ok && a.haveExit && req <= a.lastExit && e.Time >= a.lastExit {
			a.syncDelay.Add(e.Time - a.lastExit)
		}
	case EventExit:
		a.exits++
		if req, ok := a.requested[e.Site]; ok {
			a.response.Add(e.Time - req)
			if ent, ok := a.entered[e.Site]; ok {
				a.waiting.Add(ent - req)
			}
			delete(a.requested, e.Site)
			delete(a.entered, e.Site)
		}
		a.lastExit, a.haveExit = e.Time, true
	case EventFailure:
		a.failures++
	case EventRecovery:
		a.recoveries++
	}
}

// snapshotLocked summarizes one aggregate; the caller holds m.mu.
func (a *resourceAgg) snapshotLocked(events uint64, transport TransportStats, sessions SessionStats) Snapshot {
	s := Snapshot{
		Events:     events,
		Transport:  transport,
		Sessions:   sessions,
		Messages:   a.messages,
		ByKind:     make(map[string]uint64, len(a.byKind)),
		Requests:   a.requests,
		Entries:    a.entries,
		Exits:      a.exits,
		Failures:   a.failures,
		Recoveries: a.recoveries,
		SyncDelay:  a.syncDelay.Stats(),
		Response:   a.response.Stats(),
		Waiting:    a.waiting.Stats(),
	}
	for k, v := range a.byKind {
		s.ByKind[k] = v
	}
	if a.exits > 0 {
		s.MessagesPerCS = float64(a.messages) / float64(a.exits)
	}
	return s
}

// Snapshot returns a consistent copy of the metrics merged over every
// resource. Counters and ByKind sum; the delay distributions merge their
// per-resource histograms, so each sample was still paired within its own
// resource.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		Events:    m.events,
		Transport: m.transport,
		Sessions:  m.sessions,
		ByKind:    make(map[string]uint64),
	}
	var syncDelay, response, waiting Histogram
	for _, a := range m.res {
		s.Messages += a.messages
		s.Requests += a.requests
		s.Entries += a.entries
		s.Exits += a.exits
		s.Failures += a.failures
		s.Recoveries += a.recoveries
		for k, v := range a.byKind {
			s.ByKind[k] += v
		}
		syncDelay.Merge(&a.syncDelay)
		response.Merge(&a.response)
		waiting.Merge(&a.waiting)
	}
	s.SyncDelay = syncDelay.Stats()
	s.Response = response.Stats()
	s.Waiting = waiting.Stats()
	if s.Exits > 0 {
		s.MessagesPerCS = float64(s.Messages) / float64(s.Exits)
	}
	return s
}

// SnapshotResource returns the metrics of one resource. ok is false when the
// collector has seen no event for that resource. The Events field counts all
// observed events (it is collector-global), matching Snapshot.
func (m *Metrics) SnapshotResource(resource string) (snap Snapshot, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, ok := m.res[resource]
	if !ok {
		return Snapshot{}, false
	}
	return a.snapshotLocked(m.events, m.transport, m.sessions), true
}

// Resources lists every resource the collector has seen events for, sorted.
func (m *Metrics) Resources() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.res))
	for name := range m.res {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Ring keeps the most recent events for debug endpoints: a fixed-capacity
// concurrent ring buffer.
type Ring struct {
	mu   sync.Mutex
	buf  []Event
	next int
	full bool
}

// NewRing returns a ring holding the last n events (n ≥ 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Event, n)}
}

// Observe records one event; it is the ring's Sink.
func (r *Ring) Observe(e Event) {
	r.mu.Lock()
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}
