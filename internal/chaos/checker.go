// The conformance checker: a live obs.Sink that asserts the paper's claims
// while the chaos fabric runs. It keeps one Ledger per resource, which
// states the rules — safety, protocol, timestamp order over settled request
// waves, and the message bound — and feeds it the event stream and the
// transport's delivery hook, through which it tracks each request's wave.
//
// A liveness watchdog flags acquires that have been pending longer than a
// patience threshold, attaching a per-site protocol state dump. With the
// transport's reliable-delivery sublayer healing drops, duplicates, and
// reordering, liveness is a testable claim for every schedule without
// crashes or partitions (Plan.LivenessExpected); only those two faults can
// legitimately stall an acquire.

package chaos

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"dqmx/internal/clock"
	"dqmx/internal/mutex"
	"dqmx/internal/obs"
)

// Stall is one request pending longer than the watchdog's patience.
type Stall struct {
	Resource string
	Site     mutex.SiteID
	Age      time.Duration
}

// Checker consumes the obs event stream of a live cluster and records
// conformance violations. Wire Observe as the cluster's Observer and
// Delivered as the fabric's delivery hook. All methods are safe for
// concurrent use; a single mutex linearizes event observation against
// delivery notifications, which is what makes the order rule sound.
type Checker struct {
	clock   clock.Clock // request ages, the watchdog's polls
	mu      sync.Mutex
	ledgers map[string]*Ledger
	issued  map[Stall]time.Time // by resource and site, Age unset
	failed  map[mutex.SiteID]bool
	vs      []Violation

	// Reliability-sublayer health, fed by the transport-level events. These
	// never reach the ledgers, so the bound keeps asserting the paper's
	// envelope on the protocol messages alone.
	retransmits   uint64
	dupSuppressed uint64
	acksSent      uint64
}

// NewChecker returns an empty conformance checker.
func NewChecker() *Checker {
	return &Checker{
		clock:   clock.Real,
		ledgers: make(map[string]*Ledger),
		issued:  make(map[Stall]time.Time),
		failed:  make(map[mutex.SiteID]bool),
	}
}

func (c *Checker) ledger(resource string) *Ledger {
	l := c.ledgers[resource]
	if l == nil {
		l = new(Ledger)
		c.ledgers[resource] = l
	}
	return l
}

func (c *Checker) record(resource string, vs []Violation) {
	for _, v := range vs {
		v.Resource = resource
		c.vs = append(c.vs, v)
	}
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
	l := c.ledger(e.Resource)
	switch e.Type {
	case obs.EventRequest:
		l.Request(e.Site, e.ReqTS)
		c.issued[Stall{Resource: e.Resource, Site: e.Site}] = c.clock.Now()
	case obs.EventSend:
		l.Sent(e.Site, e.Kind, true)
		if e.Kind == mutex.KindRelease {
			l.Withdrew(e.Site)
		}
	case obs.EventEnter:
		c.record(e.Resource, l.Enter(e.Site, c.failed))
	case obs.EventExit:
		c.record(e.Resource, l.Exit(e.Site))
	case obs.EventFailure:
		c.failed[e.Peer] = true
		l.Fail(e.Peer)
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
	if l := c.ledgers[env.Resource]; l != nil {
		l.Delivered(env.From)
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
	for _, s := range slices.SortedFunc(maps.Keys(c.issued), func(a, b Stall) int {
		return cmp.Or(cmp.Compare(a.Resource, b.Resource), cmp.Compare(a.Site, b.Site))
	}) {
		if c.failed[s.Site] || !c.ledgers[s.Resource].Waiting(s.Site) {
			continue
		}
		if age := now.Sub(c.issued[s]); age >= patience {
			s.Age = age
			out = append(out, s)
		}
	}
	return out
}

// CheckBounds checks the bound rule for every resource, in resource order:
// on one that completed at least one critical section and saw no failure
// notification, the average messages per CS entry must land in [lo, hi]
// (the paper's 3(K-1)..6(K-1) for the coterie in use). Call it only after
// the workload has quiesced on a fault-free schedule.
func (c *Checker) CheckBounds(lo, hi float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, name := range slices.Sorted(maps.Keys(c.ledgers)) {
		c.record(name, c.ledgers[name].Bound(lo, hi))
	}
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
