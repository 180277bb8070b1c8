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

// Network models the communication medium: reliable, FIFO per ordered pair
// of sites, with per-message delays drawn from a Delay distribution. Every
// envelope is a counted network message: a site never addresses one to
// itself (mutex.Envelope). Messages to or from crashed sites are dropped.
// Sites are numbered 0..n-1; per-channel state is an n×n slice indexed by
// from·n + to.
type Network struct {
	kernel  *Kernel
	rng     *rand.Rand
	delay   Delay
	deliver func(mutex.Envelope)
	arrive  func(mutex.Envelope) // n.dispatch, bound once for Kernel.DeliverAt

	lastArrival []Time // per channel: the latest scheduled arrival
	cutLinks    []bool // per channel
	down        []bool // per site

	counts map[string]uint64
	total  uint64

	// Trace, when set, observes every delivered envelope (diagnostics).
	Trace func(at Time, env mutex.Envelope)

	// Obs, when set, receives an EventSend for every counted network
	// message at send time (the same instant the per-kind counters
	// increment, so the two stay consistent by construction).
	Obs obs.Sink
}

// NewNetwork creates a network of sites 0..sites-1 bound to the kernel.
// deliver is invoked (as a kernel event) for every message that reaches its
// destination.
func NewNetwork(k *Kernel, sites int, delay Delay, seed int64, deliver func(mutex.Envelope)) *Network {
	n := &Network{
		kernel:      k,
		rng:         rand.New(rand.NewSource(seed)),
		delay:       delay,
		deliver:     deliver,
		lastArrival: make([]Time, sites*sites),
		cutLinks:    make([]bool, sites*sites),
		down:        make([]bool, sites),
		counts:      make(map[string]uint64),
	}
	n.arrive = n.dispatch
	return n
}

// channel is the index of the from→to channel in the per-channel slices.
func (n *Network) channel(from, to mutex.SiteID) int { return int(from)*len(n.down) + int(to) }

// Send transmits one envelope. FIFO ordering per (from, to) channel is
// enforced by never scheduling an arrival before the previous arrival on the
// same channel.
func (n *Network) Send(env mutex.Envelope) {
	ch := n.channel(env.From, env.To)
	if n.down[env.From] || n.down[env.To] || n.cutLinks[ch] {
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
	if last := n.lastArrival[ch]; at < last {
		at = last
	}
	n.lastArrival[ch] = at
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
	n.cutLinks[n.channel(a, b)] = true
	n.cutLinks[n.channel(b, a)] = true
}

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
