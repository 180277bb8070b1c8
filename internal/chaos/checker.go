// The conformance checker: a live obs.Sink that asserts the paper's claims
// while the chaos fabric runs. Three invariants are checked:
//
//  1. Safety — at most one site holds the critical section per resource at
//     all times (EventEnter while another holder is inside is a violation).
//  2. Timestamp order — among conflicting requests, a request whose full
//     request wave was delivered before a later request was even issued
//     must be served first when its timestamp is smaller. This is the
//     strongest order claim that actually holds for Maekawa-family
//     protocols: a request still in flight can legitimately be overtaken
//     (the arbiter's inquire only revokes grants before CS entry), so the
//     checker tracks each request's wave through the transport's delivery
//     hook and only asserts the pairs the protocol guarantees.
//  3. Message bound — a fault-free run's per-resource message count per CS
//     entry stays within the paper's 3(K-1)..6(K-1) envelope.
//
// A liveness watchdog flags acquires that have been pending longer than a
// patience threshold, attaching a per-site protocol state dump. With the
// transport's reliable-delivery sublayer healing drops, duplicates, and
// reordering, liveness is a testable claim for every schedule without
// crashes or partitions (Plan.LivenessExpected); only those two faults can
// legitimately stall an acquire.

package chaos

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"dqmx/internal/clock"
	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
	"dqmx/internal/obs"
	"dqmx/internal/timestamp"
)

// Violation is one detected conformance breach.
type Violation struct {
	// Kind is "safety", "order", "bound", "protocol", or "transport".
	Kind     string
	Resource string
	Site     mutex.SiteID
	Detail   string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] resource %q site %d: %s", v.Kind, v.Resource, v.Site, v.Detail)
}

// Stall is one request pending longer than the watchdog's patience.
type Stall struct {
	Resource string
	Site     mutex.SiteID
	Age      time.Duration
}

// reqState tracks one outstanding request of one site.
type reqState struct {
	ts    timestamp.Timestamp
	hasTS bool
	// reqSeq is the checker-linearized instant the request was issued.
	reqSeq uint64
	// outstanding counts request-wave messages sent but not yet delivered.
	outstanding int
	// settleSeq is the instant the wave fully settled (every request
	// message delivered); 0 while messages are still in flight. A quorum
	// rebuild re-sends requests, which un-settles the wave until the new
	// messages land — exactly the window in which overtaking is legal.
	settleSeq uint64
	// withdrawn is set when the still-waiting request sends a release — a
	// withdrawal (§6 recovery or a membership swap pulling the request from
	// departing arbiters). A withdrawn arbiter may grant anyone, so the
	// order guarantee is void for this wave from then on.
	withdrawn bool
	since     time.Time
}

// resState is the checker's view of one resource.
type resState struct {
	holder  mutex.SiteID
	held    bool
	pending map[mutex.SiteID]*reqState
	sends   uint64
	exits   uint64
	faults  uint64 // failure notifications observed on this resource
}

// Checker consumes the obs event stream of a live cluster and records
// conformance violations. Wire Observe as the cluster's Observer and
// Delivered as the fabric's delivery hook. All methods are safe for
// concurrent use; a single mutex linearizes event observation against
// delivery notifications, which is what makes invariant 2 sound.
type Checker struct {
	clock     clock.Clock // request ages, the watchdog's polls
	mu        sync.Mutex
	seq       uint64
	resources map[string]*resState
	failed    map[mutex.SiteID]bool
	vs        []Violation

	// Reliability-sublayer health, fed by the transport-level events. These
	// never touch the per-resource send counts, so CheckBounds keeps
	// asserting the paper's envelope on the protocol messages alone.
	retransmits   uint64
	dupSuppressed uint64
	acksSent      uint64
}

// NewChecker returns an empty conformance checker.
func NewChecker() *Checker {
	return &Checker{
		clock:     clock.Real,
		resources: make(map[string]*resState),
		failed:    make(map[mutex.SiteID]bool),
	}
}

func (c *Checker) state(resource string) *resState {
	rs := c.resources[resource]
	if rs == nil {
		rs = &resState{pending: make(map[mutex.SiteID]*reqState)}
		c.resources[resource] = rs
	}
	return rs
}

func (c *Checker) violate(kind, resource string, site mutex.SiteID, format string, args ...any) {
	c.vs = append(c.vs, Violation{
		Kind:     kind,
		Resource: resource,
		Site:     site,
		Detail:   fmt.Sprintf(format, args...),
	})
}

// Observe is the obs.Sink half of the checker.
func (c *Checker) Observe(e obs.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch e.Type {
	case obs.EventRetransmit:
		c.retransmits++
		return
	case obs.EventDupDrop:
		c.dupSuppressed++
		return
	case obs.EventAckSend:
		c.acksSent++
		return
	}
	rs := c.state(e.Resource)
	switch e.Type {
	case obs.EventRequest:
		c.seq++
		req := &reqState{reqSeq: c.seq, since: c.clock.Now()}
		if e.ReqTS != (timestamp.Timestamp{}) && !e.ReqTS.IsMax() {
			req.ts, req.hasTS = e.ReqTS, true
		}
		rs.pending[e.Site] = req
	case obs.EventSend:
		rs.sends++
		if e.Kind == mutex.KindRequest {
			if req := rs.pending[e.Site]; req != nil {
				req.outstanding++
				req.settleSeq = 0
			}
		}
		// A release sent while the site is still waiting is a withdrawal:
		// the freed arbiter may now grant a later request, so this wave can
		// be overtaken legally for good.
		if e.Kind == mutex.KindRelease {
			if req := rs.pending[e.Site]; req != nil {
				req.withdrawn = true
				req.settleSeq = 0
			}
		}
	case obs.EventEnter:
		if rs.held {
			c.violate("safety", e.Resource, e.Site,
				"entered CS while site %d still holds it", rs.holder)
		}
		cur := rs.pending[e.Site]
		if cur != nil && cur.hasTS {
			for other, req := range rs.pending {
				if other == e.Site || !req.hasTS || c.failed[other] {
					continue
				}
				// The guaranteed pairs: req's wave settled before cur was
				// even issued, and req carries the smaller timestamp — every
				// shared arbiter queued req first, so cur cannot pass it.
				if req.ts.Less(cur.ts) && req.settleSeq != 0 && req.settleSeq < cur.reqSeq {
					c.violate("order", e.Resource, e.Site,
						"entered CS with ts %v while settled earlier request of site %d (ts %v) is still waiting",
						cur.ts, other, req.ts)
				}
			}
		}
		rs.held, rs.holder = true, e.Site
		delete(rs.pending, e.Site)
	case obs.EventExit:
		if !rs.held || rs.holder != e.Site {
			c.violate("protocol", e.Resource, e.Site, "exited CS without holding it")
		}
		rs.held = false
		rs.exits++
	case obs.EventFailure:
		rs.faults++
		c.failed[e.Peer] = true
		delete(rs.pending, e.Peer)
		// A site that crashed inside the CS never exits; the §6 arbiter
		// purge regrants its slot, which must not read as a double entry.
		// Arbiters observe the failure before purging, so this clears the
		// hold ahead of any regrant-driven entry.
		if rs.held && rs.holder == e.Peer {
			rs.held = false
		}
	}
}

// Delivered is the transport's delivery hook: it settles request waves.
// Wire it to Cluster.SetDeliveryHook, which fires once the arbiter has
// processed the request message, on the arbiter's own loop: a request the
// arbiter has queued is settled there, one still in its inbox is not. That
// is what makes a later request's issue instant comparable with the
// settlement — an arbiter that also requests either processed the earlier
// request before issuing its own (and so stamps it with a larger clock and
// queues it second) or after. Retransmitted and duplicated copies are
// suppressed below the hook, so each request message settles the wave
// precisely once; a dropped wire copy settles when its retransmission lands.
func (c *Checker) Delivered(env mutex.Envelope) {
	if env.Kind() != mutex.KindRequest {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rs := c.resources[env.Resource]
	if rs == nil {
		return
	}
	req := rs.pending[env.From]
	if req == nil {
		return
	}
	if req.outstanding > 0 {
		req.outstanding--
	}
	if req.outstanding == 0 && req.settleSeq == 0 && !req.withdrawn {
		c.seq++
		req.settleSeq = c.seq
	}
}

// Transport reports the reliability-sublayer counters observed so far:
// retransmissions, suppressed duplicates, and standalone acks.
func (c *Checker) Transport() (retransmits, dupSuppressed, acksSent uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retransmits, c.dupSuppressed, c.acksSent
}

// Violations returns the breaches recorded so far.
func (c *Checker) Violations() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Violation, len(c.vs))
	copy(out, c.vs)
	return out
}

// Stalled lists requests from live sites that have been pending longer than
// patience — the liveness watchdog's raw signal — by resource, then site.
func (c *Checker) Stalled(patience time.Duration) []Stall {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock.Now()
	var out []Stall
	for _, name := range slices.Sorted(maps.Keys(c.resources)) {
		pending := c.resources[name].pending
		for _, site := range slices.Sorted(maps.Keys(pending)) {
			if c.failed[site] {
				continue
			}
			if age := now.Sub(pending[site].since); age >= patience {
				out = append(out, Stall{Resource: name, Site: site, Age: age})
			}
		}
	}
	return out
}

// CheckBounds asserts invariant 3 for every resource that completed at
// least one critical section and saw no failure notifications: the average
// messages per CS entry must land in [lo, hi] (the paper's 3(K-1)..6(K-1)
// for the coterie in use). Call it only after the workload has quiesced on
// a fault-free schedule; any breach is recorded as a "bound" violation, in
// resource order.
func (c *Checker) CheckBounds(lo, hi float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, name := range slices.Sorted(maps.Keys(c.resources)) {
		rs := c.resources[name]
		if rs.exits == 0 || rs.faults > 0 {
			continue
		}
		perCS := float64(rs.sends) / float64(rs.exits)
		if perCS < lo || perCS > hi {
			c.violate("bound", name, 0,
				"%.2f messages per CS over %d entries, outside [%.0f, %.0f]",
				perCS, rs.exits, lo, hi)
		}
	}
}

// MessageBounds derives the paper's per-CS message envelope
// [3(Kmin-1), 6(Kmax-1)] from a coterie assignment, where Kmin and Kmax are
// the smallest and largest quorum sizes (constructions like the tree quorum
// hand different sites different K).
func MessageBounds(a *coterie.Assignment) (lo, hi float64) {
	minK, maxK := 0, 0
	for _, q := range a.Quorums {
		if k := len(q); minK == 0 || k < minK {
			minK = k
		}
		if k := len(q); k > maxK {
			maxK = k
		}
	}
	if minK < 1 {
		return 0, 0
	}
	return 3 * float64(minK-1), 6 * float64(maxK-1)
}

// Watchdog polls a checker for stalled acquires on its own goroutine and
// reports each (resource, site) stall once, attaching a state dump.
type Watchdog struct {
	stopOnce sync.Once
	stopC    chan struct{}
	doneC    chan struct{}
}

// NewWatchdog starts a watchdog polling c every interval for requests
// pending longer than patience. For each new stall it calls report with the
// stall and the output of dump (a per-site protocol state snapshot; may be
// nil). Stop it before tearing the cluster down.
func NewWatchdog(c *Checker, interval, patience time.Duration, dump func() string, report func(Stall, string)) *Watchdog {
	w := &Watchdog{stopC: make(chan struct{}), doneC: make(chan struct{})}
	go func() {
		defer close(w.doneC)
		seen := make(map[string]bool)
		for clock.Sleep(c.clock, interval, w.stopC) {
			for _, s := range c.Stalled(patience) {
				key := fmt.Sprintf("%s/%d", s.Resource, s.Site)
				if seen[key] {
					continue
				}
				seen[key] = true
				var state string
				if dump != nil {
					state = dump()
				}
				report(s, state)
			}
		}
	}()
	return w
}

// Stop halts the watchdog and waits for its goroutine to exit.
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() { close(w.stopC) })
	<-w.doneC
}
