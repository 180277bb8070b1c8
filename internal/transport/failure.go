package transport

import (
	"maps"
	"math/rand"
	"slices"
	"sync"
	"time"

	"dqmx/internal/clock"
	"dqmx/internal/mutex"
	"dqmx/internal/wire"
)

// heartbeatMsg is the liveness probe exchanged by peers running a failure
// detector. It is transport-level traffic: nodes never see it.
type heartbeatMsg struct {
	From mutex.SiteID
}

// Kind implements mutex.Message.
func (heartbeatMsg) Kind() string { return "heartbeat" }

// transportMessage marks heartbeats as transport-level for the reliability
// sublayer: probes travel unsequenced and are never retransmitted (a probe
// is a question about now; re-asking it later is a new probe).
func (heartbeatMsg) transportMessage() {}

func init() {
	wire.RegisterMessage(wire.TagHeartbeat, heartbeatMsg{},
		func(b []byte, m mutex.Message) []byte {
			return wire.AppendSite(b, m.(heartbeatMsg).From)
		},
		func(r *wire.Reader) (mutex.Message, error) {
			return heartbeatMsg{From: r.Site()}, nil
		})
}

// KillSite simulates a crash in an in-process cluster: every protocol
// instance hosted at the site — the default resource and all named locks —
// stops immediately and, after detectAfter, every surviving site receives a
// failure(f) notification per instantiated resource so the §6 recovery
// protocol can rebuild each lock's quorums. It blocks until the
// notifications are injected.
func (c *Cluster) KillSite(id mutex.SiteID, detectAfter time.Duration) {
	c.killSite(id, detectAfter, nil)
}

// killSite is KillSite with an interruptible detection delay: closing stopC
// during the delay abandons the kill without injecting notifications (used
// by the chaos crash scheduler so Cluster.Close never waits out a pending
// detection window).
func (c *Cluster) killSite(id mutex.SiteID, detectAfter time.Duration, stopC <-chan struct{}) {
	victim := c.host(id)
	if victim == nil {
		return
	}
	if f := c.fabric; f != nil {
		f.MarkCrashed(id)
	}
	if r := c.rel; r != nil {
		// §6 composition: tear down the crashed site's streams so pending
		// retransmissions at the corpse stop immediately.
		r.PeerFailed(id)
	}
	// Its closed mailboxes drop what survivors send during the detection window.
	victim.close()
	if detectAfter > 0 && !clock.Sleep(c.clock, detectAfter, stopC) {
		return
	}
	// Recorded once for every host, then swept through the roster current
	// at the record (joinMu: a site joining meanwhile is in it or reads the
	// record at birth). The victim's closed instances drop the notice.
	c.joinMu.Lock()
	c.dead.add(id)
	hosts := c.roster()
	c.joinMu.Unlock()
	for _, h := range hosts {
		h.announce(id)
	}
}

// Detector runs heartbeat-based failure detection for one TCP peer: it
// probes every known peer on an interval and, when a peer's silence exceeds
// the timeout, injects a failure notification into the local node (each peer
// detects independently; the §6 recovery protocol tolerates duplicate and
// unsynchronized announcements).
type Detector struct {
	peer     *TCPPeer
	interval time.Duration
	timeout  time.Duration

	mu       sync.Mutex
	lastSeen map[mutex.SiteID]time.Time
	declared map[mutex.SiteID]bool

	stopOnce sync.Once
	stopC    chan struct{}
	doneC    chan struct{}
}

// StartDetector begins heartbeating for the peer. interval is the probe
// period; timeout is the silence threshold for declaring a peer dead
// (typically 3–5 intervals).
func (p *TCPPeer) StartDetector(interval, timeout time.Duration) *Detector {
	d := &Detector{
		peer:     p,
		interval: interval,
		timeout:  timeout,
		lastSeen: make(map[mutex.SiteID]time.Time),
		declared: make(map[mutex.SiteID]bool),
		stopC:    make(chan struct{}),
		doneC:    make(chan struct{}),
	}
	now := p.clock.Now()
	for _, id := range p.peerList() {
		d.lastSeen[id] = now
	}
	p.setHeartbeatSink(d)
	go d.run()
	return d
}

// Stop terminates the detector and waits for its loop to exit.
func (d *Detector) Stop() {
	d.stopOnce.Do(func() { close(d.stopC) })
	<-d.doneC
}

// observe records a heartbeat (called from the peer's read loops).
func (d *Detector) observe(from mutex.SiteID) {
	d.mu.Lock()
	d.lastSeen[from] = d.peer.clock.Now()
	d.mu.Unlock()
}

// track starts monitoring a (newly joined or restarted) peer with a fresh
// grace period; a previous death declaration is forgiven so a rolling
// restart can rejoin without waiting out the old silence.
func (d *Detector) track(id mutex.SiteID) {
	d.mu.Lock()
	d.lastSeen[id] = d.peer.clock.Now()
	delete(d.declared, id)
	d.mu.Unlock()
}

// Dead returns the peers this detector has declared failed, ascending.
func (d *Detector) Dead() []mutex.SiteID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Sorted(maps.Keys(d.declared))
}

func (d *Detector) run() {
	defer close(d.doneC)
	// A jittered timer instead of a fixed ticker: N peers sharing an
	// interval would otherwise probe (and time each other out) in lockstep.
	timer := d.peer.clock.NewTimer(d.jittered())
	defer timer.Stop()
	self := d.peer.self
	for {
		select {
		case <-timer.C():
			timer.Reset(d.jittered())
			// Probe only peers not yet declared dead: heartbeating a corpse
			// just churns the outbound reconnect backoff forever. The
			// address book is snapshotted under its own lock — membership
			// changes (AddPeer) race with this loop.
			known := d.peer.peerList()
			d.mu.Lock()
			targets := slices.DeleteFunc(known, func(id mutex.SiteID) bool { return d.declared[id] })
			d.mu.Unlock()
			for _, id := range targets {
				// Best effort: an unreachable peer shows up as silence.
				_ = d.peer.Send(mutex.Envelope{From: self, To: id, Msg: heartbeatMsg{From: self}})
			}
			now := d.peer.clock.Now()
			var dead []mutex.SiteID
			d.mu.Lock()
			for id, seen := range d.lastSeen {
				if !d.declared[id] && now.Sub(seen) > d.timeout {
					d.declared[id] = true
					dead = append(dead, id)
				}
			}
			d.mu.Unlock()
			// Announce outside the detector lock, ascending so that peers
			// timing out together reach the §6 recovery in one order on every run:
			// each instantiated resource here rebuilds its quorums around them.
			slices.Sort(dead)
			for _, id := range dead {
				d.peer.injectFailure(id)
			}
		case <-d.stopC:
			return
		}
	}
}

// jittered spreads the probe period ±10% around the configured interval.
func (d *Detector) jittered() time.Duration {
	spread := 0.9 + 0.2*rand.Float64()
	return time.Duration(float64(d.interval) * spread)
}
