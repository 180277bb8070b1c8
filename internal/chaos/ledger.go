// The conformance ledger: the paper's claims about one resource, each
// stated once. The live Checker keeps one Ledger per resource and feeds it
// the obs event stream and the transport's delivery hook; the model checker
// (internal/modelcheck) keeps one in every explored state, feeds it the
// explorer's transitions and keys the state by it. Four rules:
//
//   - safety (Theorem 1): a site enters the CS while another holds it;
//   - protocol: a site exits the CS without holding it;
//   - order: a site enters while a waiting request with a smaller timestamp
//     is bypassed, where that request's wave settled (every request message
//     delivered) before the entrant's request was issued and was never
//     withdrawn. This is the strongest order claim that holds for
//     Maekawa-family protocols: a request still in flight can legitimately
//     be overtaken (the arbiter's inquire only revokes grants before CS
//     entry), so only the pairs the protocol guarantees are asserted;
//   - bound: on a run without faults, the messages per CS fall outside
//     [lo, hi], the paper's 3(K-1)..6(K-1) (MessageBounds).
//
// The checkers keep different scopes, set by what they feed the ledger:
//
//   - The live checker exempts from the order rule only the requests of
//     sites it saw fail (on any resource); it counts every protocol send the
//     runtime reports; it reports every release a waiting site sends as a
//     withdrawal; and a request message the fabric loses for good never
//     settles its wave.
//   - The model checker waives the order rule for the rest of a run once any
//     site has crashed (§6 recovery re-queues requests, so order is then
//     best-effort); it counts only the messages that travel a channel
//     (failure notifications and messages to a dead site are not sent over
//     one); it reports withdrawals only in handover runs (see
//     modelcheck.State); and a request lost with a crashed receiver counts
//     as delivered, as it no longer holds its wave open.
//
// Neither hears of what a site tells itself: that never leaves the site's
// step (mutex.Envelope).

package chaos

import (
	"fmt"
	"slices"

	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
	"dqmx/internal/wire"
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

// Ledger is the conformance record of one resource. The zero value is an
// empty ledger that grows to the highest site it hears of; NewLedger sizes
// one up front. A Ledger is a value: Clone copies it, and AppendCanonical
// encodes all of it, so an explorer can branch and deduplicate states that
// hold one. Its rule methods return the breaches they find (Resource left
// empty), nil when there are none.
type Ledger struct {
	held   bool
	holder mutex.SiteID // 0 while the CS is free
	sends  uint64       // protocol messages sent over the network
	exits  uint64       // completed critical sections
	faulty bool         // a site failed: the bound is waived
	waves  []wave       // each site's current request wave
	// before[j*n+i], n = len(waves), records that site j's wave settled
	// before site i issued its current request — the premise of the order
	// rule. It lapses when j's wave re-opens and when either request ends.
	before []bool
}

// wave is one site's current request.
type wave struct {
	ts       timestamp.Timestamp
	waiting  bool // issued and neither served nor failed
	stamped  bool // ts is known
	inFlight int  // request messages sent and not yet delivered
	// settled: every request message of the wave has been delivered since
	// it last re-opened.
	settled bool
	// withdrawn: the site sent a release while waiting, so a freed arbiter
	// may grant anyone and the wave never settles again. The mark ends with
	// the wave.
	withdrawn bool
}

// NewLedger returns an empty ledger for sites 0..n-1.
func NewLedger(n int) Ledger {
	var l Ledger
	if n > 0 {
		l.grow(mutex.SiteID(n - 1))
	}
	return l
}

// grow makes room for site.
func (l *Ledger) grow(site mutex.SiteID) {
	old, n := len(l.waves), int(site)+1
	if n <= old {
		return
	}
	before := make([]bool, n*n)
	for j := 0; j < old; j++ {
		copy(before[j*n:j*n+old], l.before[j*old:(j+1)*old])
	}
	l.before = before
	l.waves = append(l.waves, make([]wave, n-old)...)
}

// at returns site's wave, nil for a site the ledger has not heard of.
func (l *Ledger) at(site mutex.SiteID) *wave {
	if site < 0 || int(site) >= len(l.waves) {
		return nil
	}
	return &l.waves[site]
}

// lapse clears every settled-before fact about site's wave (its row).
func (l *Ledger) lapse(site mutex.SiteID) {
	n := len(l.waves)
	clear(l.before[int(site)*n : (int(site)+1)*n])
}

// end closes site's wave: neither its request, its withdrawal mark nor any
// fact about it survives.
func (l *Ledger) end(site mutex.SiteID) {
	l.waves[site] = wave{}
	l.lapse(site)
	n := len(l.waves)
	for j := 0; j < n; j++ {
		l.before[j*n+int(site)] = false
	}
}

// Waiting reports whether site has a request outstanding.
func (l *Ledger) Waiting(site mutex.SiteID) bool {
	w := l.at(site)
	return w != nil && w.waiting
}

// Holder returns the site in the CS, -1 when it is free.
func (l *Ledger) Holder() mutex.SiteID {
	if !l.held {
		return -1
	}
	return l.holder
}

// Request records that site issued a request stamped ts; a zero or maximal
// ts is unknown and exempts the request from the order rule. Every wave
// settled at this instant now settled before it.
func (l *Ledger) Request(site mutex.SiteID, ts timestamp.Timestamp) {
	l.grow(site)
	l.end(site)
	l.waves[site] = wave{ts: ts, waiting: true, stamped: ts != (timestamp.Timestamp{}) && !ts.IsMax()}
	n := len(l.waves)
	for j, w := range l.waves {
		if w.settled {
			l.before[j*n+int(site)] = true
		}
	}
}

// Sent records a protocol message of the given kind from site from. travels
// says whether it goes over the network: only those count toward the bound.
// A request re-opens a waiting sender's wave — the facts that it settled
// before later requests lapse. One that travels holds the wave open until it
// is Delivered; one that does not lands, or is lost, on the spot.
func (l *Ledger) Sent(from mutex.SiteID, kind string, travels bool) {
	if travels {
		l.sends++
	}
	w := l.at(from)
	if kind != mutex.KindRequest || w == nil || !w.waiting {
		return
	}
	l.lapse(from)
	if travels {
		w.inFlight++
	}
	w.settled = w.inFlight == 0 && !w.withdrawn
}

// Delivered records that one of from's request messages reached its
// arbiter. The wave settles once none is in flight, unless it was
// withdrawn.
func (l *Ledger) Delivered(from mutex.SiteID) {
	w := l.at(from)
	if w == nil || !w.waiting {
		return
	}
	if w.inFlight > 0 {
		w.inFlight--
	}
	if w.inFlight == 0 && !w.withdrawn {
		w.settled = true
	}
}

// Withdrew records a withdrawal: site sent a release while still waiting,
// pulling its request from an arbiter. The freed arbiter may grant anyone,
// so the order guarantee is void for this wave from then on.
func (l *Ledger) Withdrew(site mutex.SiteID) {
	w := l.at(site)
	if w == nil || !w.waiting {
		return
	}
	w.withdrawn, w.settled = true, false
	l.lapse(site)
}

// Enter records that site entered the CS and checks the safety and order
// rules. The order rule skips waiting requests of the sites in excused.
func (l *Ledger) Enter(site mutex.SiteID, excused map[mutex.SiteID]bool) []Violation {
	l.grow(site)
	var vs []Violation
	if l.held {
		vs = append(vs, Violation{Kind: "safety", Site: site,
			Detail: fmt.Sprintf("entered the CS while site %d holds it", l.holder)})
	}
	if cur, n := l.waves[site], len(l.waves); cur.waiting && cur.stamped {
		for j, w := range l.waves {
			other := mutex.SiteID(j)
			if other == site || !w.waiting || !w.stamped || excused[other] {
				continue
			}
			// The guaranteed pairs: w settled before cur was even issued
			// and carries the smaller timestamp — every shared arbiter
			// queued w first, so cur cannot pass it.
			if l.before[j*n+int(site)] && w.ts.Less(cur.ts) {
				vs = append(vs, Violation{Kind: "order", Site: site,
					Detail: fmt.Sprintf("entered with ts %v while site %d's request (ts %v), settled before it was issued, still waits",
						cur.ts, other, w.ts)})
			}
		}
	}
	l.held, l.holder = true, site
	l.end(site)
	return vs
}

// Exit records that site left the CS and checks the protocol rule.
func (l *Ledger) Exit(site mutex.SiteID) []Violation {
	var vs []Violation
	if !l.held || l.holder != site {
		vs = append(vs, Violation{Kind: "protocol", Site: site, Detail: "exited the CS without holding it"})
	}
	l.held, l.holder = false, 0
	l.exits++
	return vs
}

// Fail records that site failed: its request is gone, a hold it had ends —
// the §6 arbiter purge regrants its slot, which must not read as a double
// entry — and the bound no longer applies.
func (l *Ledger) Fail(site mutex.SiteID) {
	l.faulty = true
	if l.held && l.holder == site {
		l.held, l.holder = false, 0
	}
	if l.at(site) != nil {
		l.end(site)
	}
}

// Bound checks the bound rule: on a run that completed a critical section
// and saw no failure, the messages per CS must lie in [lo, hi].
func (l *Ledger) Bound(lo, hi float64) []Violation {
	if l.exits == 0 || l.faulty {
		return nil
	}
	perCS := float64(l.sends) / float64(l.exits)
	if perCS >= lo && perCS <= hi {
		return nil
	}
	return []Violation{{Kind: "bound",
		Detail: fmt.Sprintf("%.2f messages per CS over %d entries, outside [%.0f, %.0f]", perCS, l.exits, lo, hi)}}
}

// Clone returns a copy of l that shares nothing mutable with it.
func (l *Ledger) Clone() Ledger {
	c := *l
	c.waves = slices.Clone(l.waves)
	c.before = slices.Clone(l.before)
	return c
}

// AppendCanonical appends an encoding of the ledger to b: two ledgers with
// equal encodings give identical verdicts on identical future inputs. The
// message and exit counts are encoded only when counters is set; a caller
// that does not check the bound leaves them out, so states that differ
// only in cost are one.
func (l *Ledger) AppendCanonical(b []byte, counters bool) []byte {
	b = wire.AppendBool(b, l.held)
	b = wire.AppendSite(b, l.holder)
	if counters {
		b = wire.AppendUint(b, l.sends)
		b = wire.AppendUint(b, l.exits)
	}
	b = wire.AppendBool(b, l.faulty)
	b = wire.AppendUint(b, uint64(len(l.waves)))
	for _, w := range l.waves {
		b = wire.AppendTimestamp(b, w.ts)
		b = wire.AppendBool(b, w.waiting)
		b = wire.AppendBool(b, w.stamped)
		b = wire.AppendUint(b, uint64(w.inFlight))
		b = wire.AppendBool(b, w.settled)
		b = wire.AppendBool(b, w.withdrawn)
	}
	for _, s := range l.before {
		b = wire.AppendBool(b, s)
	}
	return b
}

// String renders the ledger for counterexample dumps.
func (l *Ledger) String() string {
	return fmt.Sprintf("holder=%d sends=%d exits=%d faulty=%v waves=%+v", l.Holder(), l.sends, l.exits, l.faulty, l.waves)
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
