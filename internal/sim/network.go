package sim

import (
	"math"
	"math/rand"

	"dqmx/internal/mutex"
	"dqmx/internal/obs"
)

// Delay samples the network delay for one message. Implementations must be
// deterministic given the rng state.
type Delay interface {
	// Sample returns the transit time of one message.
	Sample(rng *rand.Rand) Time
	// Mean returns the expected transit time (the paper's T).
	Mean() Time
}

// ConstantDelay delivers every message after exactly D units. This is the
// configuration used for the paper's delay measurements, where the
// synchronization delay is expressed in multiples of T.
type ConstantDelay struct{ D Time }

// Sample implements Delay.
func (c ConstantDelay) Sample(*rand.Rand) Time { return c.D }

// Mean implements Delay.
func (c ConstantDelay) Mean() Time { return c.D }

// UniformDelay delivers messages after a delay drawn uniformly from
// [Lo, Hi].
type UniformDelay struct{ Lo, Hi Time }

// Sample implements Delay.
func (u UniformDelay) Sample(rng *rand.Rand) Time {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + Time(rng.Int63n(int64(u.Hi-u.Lo)+1))
}

// Mean implements Delay.
func (u UniformDelay) Mean() Time { return (u.Lo + u.Hi) / 2 }

// ExponentialDelay delivers messages after an exponentially distributed
// delay with the given mean, capped at 20× the mean so the system model's
// "unpredictable but bounded" assumption holds.
type ExponentialDelay struct{ MeanD Time }

// Sample implements Delay.
func (e ExponentialDelay) Sample(rng *rand.Rand) Time {
	d := Time(math.Round(rng.ExpFloat64() * float64(e.MeanD)))
	if cap := 20 * e.MeanD; d > cap {
		d = cap
	}
	if d < 1 {
		d = 1
	}
	return d
}

// Mean implements Delay.
func (e ExponentialDelay) Mean() Time { return e.MeanD }

type channelKey struct{ from, to mutex.SiteID }

// Network models the communication medium: reliable, FIFO per ordered pair
// of sites, with per-message delays drawn from a Delay distribution.
// Self-addressed envelopes are delivered at the current time and are not
// counted. Messages to or from crashed sites are dropped.
type Network struct {
	kernel  *Kernel
	rng     *rand.Rand
	delay   Delay
	deliver func(mutex.Envelope)
	arrive  func(mutex.Envelope) // n.dispatch, bound once for Kernel.DeliverAt

	lastArrival map[channelKey]Time
	down        map[mutex.SiteID]bool
	cutLinks    map[channelKey]bool

	counts map[string]uint64
	total  uint64

	// Trace, when set, observes every delivered envelope (diagnostics).
	Trace func(at Time, env mutex.Envelope)

	// Obs, when set, receives an EventSend for every counted network
	// message at send time (the same instant the per-kind counters
	// increment, so the two stay consistent by construction).
	Obs obs.Sink
}

// NewNetwork creates a network bound to the kernel. deliver is invoked (as a
// kernel event) for every message that reaches its destination.
func NewNetwork(k *Kernel, delay Delay, seed int64, deliver func(mutex.Envelope)) *Network {
	n := &Network{
		kernel:      k,
		rng:         rand.New(rand.NewSource(seed)),
		delay:       delay,
		deliver:     deliver,
		lastArrival: make(map[channelKey]Time),
		down:        make(map[mutex.SiteID]bool),
		cutLinks:    make(map[channelKey]bool),
		counts:      make(map[string]uint64),
	}
	n.arrive = n.dispatch
	return n
}

// Send transmits one envelope. FIFO ordering per (from, to) channel is
// enforced by never scheduling an arrival before the previous arrival on the
// same channel.
func (n *Network) Send(env mutex.Envelope) {
	if n.down[env.From] || n.down[env.To] || n.cutLinks[channelKey{env.From, env.To}] {
		return
	}
	if env.From == env.To {
		// Local delivery: immediate, not a network message.
		n.kernel.DeliverAt(n.kernel.Now(), env, n.arrive)
		return
	}
	kind := env.Kind()
	n.counts[kind]++
	n.total++
	if n.Obs != nil {
		n.Obs(obs.Event{
			Type: obs.EventSend, Site: env.From, Peer: env.To,
			Kind: kind, Time: int64(n.kernel.Now()),
		})
	}
	at := n.kernel.Now() + n.delay.Sample(n.rng)
	key := channelKey{env.From, env.To}
	if last := n.lastArrival[key]; at < last {
		at = last
	}
	n.lastArrival[key] = at
	n.kernel.DeliverAt(at, env, n.arrive)
}

func (n *Network) dispatch(env mutex.Envelope) {
	if n.down[env.To] || n.down[env.From] {
		return // crashed while the message was in flight
	}
	if n.Trace != nil {
		n.Trace(n.kernel.Now(), env)
	}
	n.deliver(env)
}

// SendAll transmits every envelope in the slice.
func (n *Network) SendAll(envs []mutex.Envelope) {
	for _, e := range envs {
		n.Send(e)
	}
}

// Crash marks a site as failed: all of its queued and future messages are
// silently dropped.
func (n *Network) Crash(s mutex.SiteID) { n.down[s] = true }

// CutLink severs the bidirectional channel between a and b: messages already
// in flight still arrive (they left before the cut), future sends are
// dropped silently.
func (n *Network) CutLink(a, b mutex.SiteID) {
	n.cutLinks[channelKey{a, b}] = true
	n.cutLinks[channelKey{b, a}] = true
}

// LinkCut reports whether the a→b channel is severed.
func (n *Network) LinkCut(a, b mutex.SiteID) bool { return n.cutLinks[channelKey{a, b}] }

// Down reports whether a site has crashed.
func (n *Network) Down(s mutex.SiteID) bool { return n.down[s] }

// Total returns the total number of counted network messages.
func (n *Network) Total() uint64 { return n.total }

// CountByKind returns a copy of the per-kind message counters.
func (n *Network) CountByKind() map[string]uint64 {
	out := make(map[string]uint64, len(n.counts))
	for k, v := range n.counts {
		out[k] = v
	}
	return out
}

// MeanDelay exposes the configured mean message delay T.
func (n *Network) MeanDelay() Time { return n.delay.Mean() }
