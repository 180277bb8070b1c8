package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"

	"dqmx/internal/mutex"
	"dqmx/internal/obs"
	"dqmx/internal/timestamp"
)

// Config describes one simulation run.
type Config struct {
	// N is the number of sites.
	N int
	// Algorithm supplies the per-site state machines.
	Algorithm mutex.Algorithm
	// Delay is the message delay distribution (defaults to ConstantDelay{1000}).
	Delay Delay
	// Seed drives all randomness in the run.
	Seed int64
	// CSTime is the critical-section execution time E (defaults to 10).
	CSTime Time
	// DetectDelay is the failure-detection latency before a crash is
	// announced to the surviving sites (defaults to 5× the mean delay).
	DetectDelay Time
	// Observer, when non-nil, receives every protocol event (requests,
	// sends, entries, exits, failure handling) with simulated-tick
	// timestamps. Nil disables event emission entirely.
	Observer obs.Sink
}

// CSRecord captures the lifecycle of one completed critical-section
// execution. Its exit is not stored: a site leaves the CS exactly CSTime
// after it entered, at Entered + Cluster.CSTime().
type CSRecord struct {
	Site      mutex.SiteID
	Requested Time
	Entered   Time
}

// ErrSafetyViolation is wrapped by Cluster.Err when two sites ever held the
// critical section simultaneously.
var ErrSafetyViolation = errors.New("sim: mutual exclusion violated")

// ErrStarvation is wrapped by Cluster.Err when requests remain pending after
// the event queue drained.
var ErrStarvation = errors.New("sim: request never completed")

const (
	// logChunk is the size in bytes of one chunk of a Cluster's record log.
	logChunk = 32 << 10
	// entryMax bounds one log entry: three uvarints.
	entryMax = 3 * binary.MaxVarintLen64
)

// Cluster drives one mutex.Algorithm instance over the simulated network,
// monitors the mutual exclusion invariant at every entry, and records the
// per-CS timing used to compute the paper's metrics.
//
// Its bookkeeping is flat: per-site state lives in slices indexed by site,
// each site's exit callback is bound once, and every CS entry appends one
// varint entry, about 6 bytes, to a log of fixed-size chunks that are never
// regrown or copied. A simulated CS therefore allocates nothing beyond its
// share of a chunk.
type Cluster struct {
	cfg     Config
	Kernel  *Kernel
	Net     *Network
	Sites   []mutex.Site
	crashed []bool // per site

	inCS       mutex.SiteID
	violations []string
	requested  []Time   // per site: when its current request was issued
	exits      []func() // per site: its exit callback, bound once
	// log holds one entry per CS entry, in entry order, as three uvarints:
	// the site, Entered minus the previous entry's Entered (kernel time never
	// goes backwards) and Entered minus Requested. The exit is not stored: a
	// site's exit runs exactly CSTime after its entry. The chunks are
	// logChunk bytes; a new one starts when fewer than entryMax are left.
	log         [][]byte
	entries     int  // ordinal of the next entry
	lastEntered Time // Entered of the latest entry
	// current[s] is the ordinal of site s's entry while it is in the CS, and
	// -1 outside it. cut lists, ascending, the ordinals of the entries whose
	// site crashed inside the CS: those never completed.
	current   []int
	cut       []int
	issued    int
	completed int

	// OnExit, when non-nil, runs after a site releases the CS; workloads use
	// it to schedule the site's next request (closed-loop load).
	OnExit func(c *Cluster, site mutex.SiteID)
}

// NewCluster builds a cluster from the configuration.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("sim: config needs N > 0, got %d", cfg.N)
	}
	if cfg.Algorithm == nil {
		return nil, errors.New("sim: config needs an algorithm")
	}
	if cfg.Delay == nil {
		cfg.Delay = ConstantDelay{D: 1000}
	}
	if cfg.CSTime <= 0 {
		cfg.CSTime = 10
	}
	if cfg.DetectDelay <= 0 {
		cfg.DetectDelay = 5 * cfg.Delay.Mean()
	}
	sites, err := cfg.Algorithm.NewSites(cfg.N)
	if err != nil {
		return nil, fmt.Errorf("sim: build sites: %w", err)
	}
	c := &Cluster{
		cfg:       cfg,
		Kernel:    &Kernel{},
		Sites:     sites,
		crashed:   make([]bool, cfg.N),
		inCS:      timestamp.None,
		requested: make([]Time, cfg.N),
		exits:     make([]func(), cfg.N),
		current:   make([]int, cfg.N),
	}
	for i := range c.exits {
		s := mutex.SiteID(i)
		c.exits[i] = func() { c.exit(s) }
		c.current[i] = -1
	}
	c.Net = NewNetwork(c.Kernel, cfg.N, cfg.Delay, cfg.Seed, c.deliver)
	c.Net.Obs = cfg.Observer
	return c, nil
}

// observe emits one lifecycle event; callers must have checked that the
// observer is installed.
func (c *Cluster) observe(t obs.EventType, site, peer mutex.SiteID) {
	c.cfg.Observer(obs.Event{Type: t, Site: site, Peer: peer, Time: int64(c.Kernel.Now())})
}

// N returns the number of sites.
func (c *Cluster) N() int { return c.cfg.N }

// CSTime returns the configured critical-section execution time E.
func (c *Cluster) CSTime() Time { return c.cfg.CSTime }

// RequestAt schedules site s to issue a CS request at absolute time t.
func (c *Cluster) RequestAt(t Time, s mutex.SiteID) {
	c.Kernel.At(t, func() { c.issue(s) })
}

// RequestNow issues a CS request for site s at the current simulated time.
func (c *Cluster) RequestNow(s mutex.SiteID) { c.issue(s) }

func (c *Cluster) issue(s mutex.SiteID) {
	if c.crashed[s] {
		return
	}
	site := c.Sites[s]
	if site.Pending() || site.InCS() {
		return // workload raced with an unfinished request; drop
	}
	c.issued++
	c.requested[s] = c.Kernel.Now()
	if c.cfg.Observer != nil {
		c.observe(obs.EventRequest, s, s)
	}
	c.handle(s, site.Request())
}

// handle applies one Output: transmits messages and reacts to a CS entry.
func (c *Cluster) handle(s mutex.SiteID, out mutex.Output) {
	if out.Entered {
		c.enter(s)
	}
	c.Net.SendAll(out.Send)
}

func (c *Cluster) enter(s mutex.SiteID) {
	if c.inCS != timestamp.None && c.inCS != s {
		c.violations = append(c.violations,
			fmt.Sprintf("t=%d: site %d entered while site %d was in the CS", c.Kernel.Now(), s, c.inCS))
	}
	c.inCS = s
	if c.cfg.Observer != nil {
		c.observe(obs.EventEnter, s, s)
	}
	k := len(c.log) - 1
	if k < 0 || cap(c.log[k])-len(c.log[k]) < entryMax {
		c.log = append(c.log, make([]byte, 0, logChunk))
		k++
	}
	now := c.Kernel.Now()
	b := binary.AppendUvarint(c.log[k], uint64(s))
	b = binary.AppendUvarint(b, uint64(now-c.lastEntered))
	c.log[k] = binary.AppendUvarint(b, uint64(now-c.requested[s]))
	c.lastEntered = now
	c.current[s] = c.entries
	c.entries++
	c.Kernel.After(c.cfg.CSTime, c.exits[s])
}

func (c *Cluster) exit(s mutex.SiteID) {
	if c.crashed[s] {
		return // crashed inside the CS; the failure protocol recovers
	}
	if c.inCS == s {
		c.inCS = timestamp.None
	}
	c.current[s] = -1
	c.completed++
	if c.cfg.Observer != nil {
		c.observe(obs.EventExit, s, s)
	}
	c.handle(s, c.Sites[s].Exit())
	if c.OnExit != nil {
		c.OnExit(c, s)
	}
}

func (c *Cluster) deliver(env mutex.Envelope) {
	if c.crashed[env.To] {
		return
	}
	site := c.Sites[env.To]
	if c.cfg.Observer != nil {
		if f, ok := env.Msg.(mutex.FailureMsg); ok {
			c.observe(obs.EventFailure, env.To, f.Failed)
			c.handle(env.To, site.Deliver(env))
			c.observe(obs.EventRecovery, env.To, f.Failed)
			return
		}
	}
	c.handle(env.To, site.Deliver(env))
}

// CrashAt schedules site f to crash at time t. After the configured
// detection delay the lowest-numbered surviving site announces failure(f) to
// every other surviving site (counted as network messages, as in §6's
// multicast) and to itself (local, uncounted).
func (c *Cluster) CrashAt(t Time, f mutex.SiteID) {
	c.Kernel.At(t, func() {
		if c.crashed[f] {
			return
		}
		c.crashed[f] = true
		c.Net.Crash(f)
		if c.inCS == f {
			c.inCS = timestamp.None
		}
		if i := c.current[f]; i >= 0 {
			j, _ := slices.BinarySearch(c.cut, i)
			c.cut = slices.Insert(c.cut, j, i)
			c.current[f] = -1
		}
		c.Kernel.After(c.cfg.DetectDelay, func() { c.announceFailure(f) })
	})
}

// CutLinkAt schedules the communication link between a and b to fail at
// time t. After the detection delay each endpoint locally suspects the other
// (receives a failure notification for it) and — with a fault-tolerant
// construction — reroutes its quorum around the unreachable site. Mutual
// exclusion is preserved because quorums computed under different failure
// views still pairwise intersect.
func (c *Cluster) CutLinkAt(t Time, a, b mutex.SiteID) {
	c.Kernel.At(t, func() {
		c.Net.CutLink(a, b)
		c.Kernel.After(c.cfg.DetectDelay, func() {
			if !c.crashed[a] {
				c.deliver(mutex.Envelope{From: a, To: a, Msg: mutex.FailureMsg{Failed: b}})
			}
			if !c.crashed[b] {
				c.deliver(mutex.Envelope{From: b, To: b, Msg: mutex.FailureMsg{Failed: a}})
			}
		})
	})
}

func (c *Cluster) announceFailure(f mutex.SiteID) {
	detector := timestamp.None
	for i, down := range c.crashed {
		if !down {
			detector = mutex.SiteID(i)
			break
		}
	}
	if detector == timestamp.None {
		return
	}
	// The detector's own notice is local: it lands at the detection instant
	// and is not a network message.
	notice := mutex.FailureMsg{Failed: f}
	c.Kernel.DeliverAt(c.Kernel.Now(), mutex.Envelope{From: detector, To: detector, Msg: notice}, c.deliver)
	for i, down := range c.crashed {
		if to := mutex.SiteID(i); !down && to != detector {
			c.Net.Send(mutex.Envelope{From: detector, To: to, Msg: notice})
		}
	}
}

// Run executes the simulation until the event queue drains or maxSteps
// events have run (maxSteps <= 0 means unlimited).
func (c *Cluster) Run(maxSteps uint64) { c.Kernel.Run(maxSteps) }

// Err reports safety violations and starvation detected during the run. It
// should be called after Run has drained the event queue.
func (c *Cluster) Err() error {
	if len(c.violations) > 0 {
		return fmt.Errorf("%w: %s (+%d more)", ErrSafetyViolation, c.violations[0], len(c.violations)-1)
	}
	for i, site := range c.Sites {
		if c.crashed[i] {
			continue
		}
		if site.Pending() {
			return fmt.Errorf("%w: site %d still pending after quiescence", ErrStarvation, i)
		}
	}
	return nil
}

// Completed returns the number of finished CS executions.
func (c *Cluster) Completed() int { return c.completed }

// Issued returns the number of CS requests issued.
func (c *Cluster) Issued() int { return c.issued }

// completedRecords yields the completed CS records in entry order, decoded
// from the record log. It skips the entries cut short by a crash and the
// entry of a site still inside the CS.
func (c *Cluster) completedRecords() iter.Seq[CSRecord] {
	return func(yield func(CSRecord) bool) {
		cut := c.cut
		var entered Time
		i := 0
		for _, b := range c.log {
			for ; len(b) > 0; i++ {
				var site, gap, wait uint64
				site, b = uvarint(b)
				gap, b = uvarint(b)
				wait, b = uvarint(b)
				entered += Time(gap)
				s := mutex.SiteID(site)
				if len(cut) > 0 && cut[0] == i {
					cut = cut[1:]
					continue
				}
				if c.current[s] == i {
					continue
				}
				r := CSRecord{Site: s, Requested: entered - Time(wait), Entered: entered}
				if !yield(r) {
					return
				}
			}
		}
	}
}

// uvarint decodes one uvarint off the front of b.
func uvarint(b []byte) (uint64, []byte) {
	v, n := binary.Uvarint(b)
	return v, b[n:]
}

// Records returns the completed CS records in entry order. It builds a fresh
// slice, owned by the caller, from the record log on every call.
func (c *Cluster) Records() []CSRecord {
	out := make([]CSRecord, 0, c.completed)
	for r := range c.completedRecords() {
		out = append(out, r)
	}
	return out
}

// Result summarizes one run with the paper's metrics.
type Result struct {
	Algorithm     string
	N             int
	Completed     int
	TotalMessages uint64
	ByKind        map[string]uint64
	// MessagesPerCS is TotalMessages / Completed.
	MessagesPerCS float64
	// SyncDelay is the mean time between one site exiting the CS and the
	// next site entering it, measured only over handovers where the next
	// site was already waiting (the paper's heavy-load definition), in units
	// of the mean message delay T.
	SyncDelay float64
	// SyncDelaySamples is the number of handovers measured.
	SyncDelaySamples int
	// ResponseTime is the mean request→exit time in units of T.
	ResponseTime float64
	// ResponseP99 is the 99th-percentile request→exit time in units of T.
	ResponseP99 float64
	// WaitingTime is the mean request→enter time in units of T.
	WaitingTime float64
	// WaitingP99 is the 99th-percentile request→enter time in units of T.
	WaitingP99 float64
	// Throughput is completed CS executions per T time units.
	Throughput float64
}

// Summarize computes the run metrics. It decodes the record log twice and
// copies nothing from it: the percentiles keep about one value in a hundred.
func (c *Cluster) Summarize() Result {
	res := Result{
		Algorithm:     c.cfg.Algorithm.Name(),
		N:             c.cfg.N,
		Completed:     c.completed,
		TotalMessages: c.Net.Total(),
		ByKind:        c.Net.CountByKind(),
	}
	if c.completed > 0 {
		res.MessagesPerCS = float64(res.TotalMessages) / float64(c.completed)
	}
	t := float64(c.Net.MeanDelay())
	cs := c.cfg.CSTime
	var (
		syncSum, respSum, waitSum float64
		syncN, n                  int
		first, prev               CSRecord // the first and the previous completed record
	)
	for r := range c.completedRecords() {
		respSum += float64(r.Entered + cs - r.Requested)
		waitSum += float64(r.Entered - r.Requested)
		if n == 0 {
			first = r
		} else if prevExit := prev.Entered + cs; r.Requested <= prevExit && r.Entered >= prevExit {
			syncSum += float64(r.Entered - prevExit)
			syncN++
		}
		prev = r
		n++
	}
	if n > 0 && t > 0 {
		res.ResponseTime = respSum / float64(n) / t
		res.WaitingTime = waitSum / float64(n) / t
		// Every response time is its waiting time plus CSTime, so one
		// selection gives both percentiles.
		wait99 := p99(func(yield func(Time) bool) {
			for r := range c.completedRecords() {
				if !yield(r.Entered - r.Requested) {
					return
				}
			}
		}, n)
		res.ResponseP99 = float64(wait99+cs) / t
		res.WaitingP99 = float64(wait99) / t
		span := float64(prev.Entered + cs - first.Requested)
		if span > 0 {
			res.Throughput = float64(c.completed) / span * t
		}
	}
	if syncN > 0 && t > 0 {
		res.SyncDelay = syncSum / float64(syncN) / t
		res.SyncDelaySamples = syncN
	}
	return res
}

// p99 is the nearest-rank 99th percentile of the n ≥ 1 values seq yields:
// the value at index ⌈0.99·n⌉ − 1 of the sorted sample, which is the least
// of its n − (⌈0.99·n⌉ − 1) largest values. Only those are kept, in a
// min-heap, so p99 needs about n/100 values of space, not n.
func p99(seq iter.Seq[Time], n int) Time {
	k := n - (int(math.Ceil(0.99*float64(n))) - 1)
	top := make([]Time, 0, k)
	for v := range seq {
		if len(top) < k {
			top = append(top, v)
			for i := len(top) - 1; i > 0 && top[i] < top[(i-1)/2]; i = (i - 1) / 2 {
				top[i], top[(i-1)/2] = top[(i-1)/2], top[i]
			}
			continue
		}
		if v <= top[0] {
			continue
		}
		top[0] = v
		for i := 0; ; {
			m := i
			if l := 2*i + 1; l < k && top[l] < top[m] {
				m = l
			}
			if r := 2*i + 2; r < k && top[r] < top[m] {
				m = r
			}
			if m == i {
				break
			}
			top[i], top[m] = top[m], top[i]
			i = m
		}
	}
	return top[0]
}
