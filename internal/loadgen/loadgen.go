// Package loadgen is the live-cluster load-generation and performance lab:
// it drives real protocol deployments — an in-process cluster or a loopback
// TCP deployment — with open-loop (Poisson) or closed-loop (think-time)
// client populations over uniform or Zipf-distributed named resources,
// measures acquire latency and protocol traffic inside an explicit
// warmup/measure/drain window, and emits machine-readable BENCH_live_*.json
// artifacts. Where the sim package answers "what does the protocol cost in
// units of T", loadgen answers "what does this implementation cost in
// nanoseconds on a real fabric" — including the flagship A/B of the paper's
// claim: release→next-entry handoff under delay-optimal (transfer, T) versus
// maekawa, the same machine on the 2T release path through the arbiter.
package loadgen

import (
	"fmt"
	"math/rand"
	"time"
)

// Arrival names a client-population model.
const (
	// ArrivalClosed is a fixed population of workers, each cycling
	// think → acquire → hold → release with exponentially distributed
	// think times (mean Config.Think).
	ArrivalClosed = "closed"
	// ArrivalOpen is a Poisson arrival process at Config.Rate arrivals per
	// second, served by a bounded worker pool; latency is measured from the
	// scheduled arrival, so backlog queueing counts against the system.
	ArrivalOpen = "open"
)

// Dist names a key-popularity distribution over the named resources.
const (
	// DistUniform spreads operations evenly over the resources.
	DistUniform = "uniform"
	// DistZipf skews operations toward low-numbered resources with
	// exponent Config.ZipfS (> 1).
	DistZipf = "zipf"
)

// KeyDist picks resource indices in [0, k). Implementations are
// deterministic functions of their seed, so a run's key sequence replays
// exactly.
type KeyDist interface {
	Next() int
}

// uniformDist picks each key with equal probability.
type uniformDist struct {
	rng *rand.Rand
	k   int
}

func (u *uniformDist) Next() int { return u.rng.Intn(u.k) }

// zipfDist skews toward key 0 with P(i) ∝ 1/(i+1)^s.
type zipfDist struct {
	z *rand.Zipf
}

func (z *zipfDist) Next() int { return int(z.z.Uint64()) }

// NewKeyDist builds the named distribution over k keys, seeded by rng.
// DistZipf requires s > 1 (the stdlib generator's domain).
func NewKeyDist(dist string, s float64, k int, rng *rand.Rand) (KeyDist, error) {
	if k < 1 {
		return nil, fmt.Errorf("loadgen: need at least one resource, got %d", k)
	}
	switch dist {
	case "", DistUniform:
		return &uniformDist{rng: rng, k: k}, nil
	case DistZipf:
		if s <= 1 {
			return nil, fmt.Errorf("loadgen: zipf exponent must be > 1, got %v", s)
		}
		return &zipfDist{z: rand.NewZipf(rng, s, 1, uint64(k-1))}, nil
	}
	return nil, fmt.Errorf("loadgen: unknown key distribution %q (valid: %s, %s)",
		dist, DistUniform, DistZipf)
}

// Interarrival samples one exponential interarrival gap for a Poisson
// process of the given rate (arrivals per second). Zero and negative rates
// are invalid; Config validation rejects them before sampling.
func Interarrival(rng *rand.Rand, ratePerSec float64) time.Duration {
	return time.Duration(rng.ExpFloat64() / ratePerSec * float64(time.Second))
}

// ThinkTime samples one exponential think-time with the given mean. A zero
// mean means no thinking: the population is saturated.
func ThinkTime(rng *rand.Rand, mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(rng.ExpFloat64() * float64(mean))
}

// Config describes one live benchmark run.
type Config struct {
	// Driver selects the fabric: DriverInproc or DriverTCP.
	Driver string
	// Protocol and Quorum select the algorithm; both default to the paper's
	// (delay-optimal over grid). Every protocol runs in-process; the tcp and
	// service drivers run delay-optimal and maekawa, the protocols with a
	// wire codec, and dqmx refuses the rest when the peers are built.
	Protocol string
	Quorum   string
	// N is the cluster size: sites for the site drivers, arbiters for the
	// service driver.
	N int
	// Clients is the leased-session count of a service run (default:
	// Workers). The site drivers reject it — their population is N.
	Clients int
	// Lease is the service run's session lease TTL (zero = service
	// default).
	Lease time.Duration
	// Resources is the number of named locks (default 1).
	Resources int
	// Dist and ZipfS select the key-popularity distribution (default
	// uniform; ZipfS defaults to 1.2 when Dist is zipf).
	Dist  string
	ZipfS float64
	// Arrival selects the population model (default closed).
	Arrival string
	// Workers is the population size (closed) or service-pool size (open).
	// Defaults to N.
	Workers int
	// Rate is the open-loop arrival rate in arrivals per second.
	Rate float64
	// Think is the closed-loop mean think time (zero = saturated).
	Think time.Duration
	// Hold is how long a worker keeps the lock once acquired.
	Hold time.Duration
	// Warmup, Measure, Drain bound the run's phases. Only activity inside
	// the measure window is reported; drain bounds how long the controller
	// waits for in-flight operations before cancelling them.
	Warmup  time.Duration
	Measure time.Duration
	Drain   time.Duration
	// HopDelay imposes a deterministic per-hop message latency: on the
	// in-process driver through a chaos plan (MinDelay = MaxDelay), on the
	// TCP driver through the transport's LinkDelay. Without it, loopback
	// delivery is so fast that scheduling noise swamps the protocol's T
	// versus 2T structure.
	HopDelay time.Duration
	// Chaos, when non-nil, runs the in-process cluster under this fault
	// plan (the TCP driver rejects it). HopDelay, when also set, overrides
	// the plan's delay bounds.
	Chaos *ChaosPlanConfig
	// Reconfigure, when positive, grows the cluster to this many sites via
	// the joint-quorum handover (internal/membership) one third of the way
	// into the measure window, keeping the load running across the epoch
	// switch. The report then splits acquire latency into before/during/
	// after the switch and records the switch duration. In-process driver
	// only (a TCP switch is operator-driven), and the target must exceed N —
	// the workers stay bound to the original sites.
	Reconfigure int
	// Seed drives every generator decision; equal seeds replay the same
	// key and think/interarrival sequences.
	Seed int64
}

// ChaosPlanConfig mirrors the chaos plan knobs loadgen exposes; it is a
// plain struct so artifact records stay JSON-friendly.
type ChaosPlanConfig struct {
	Drop      float64       `json:"drop,omitempty"`
	Duplicate float64       `json:"duplicate,omitempty"`
	Reorder   float64       `json:"reorder,omitempty"`
	MinDelay  time.Duration `json:"min_delay,omitempty"`
	MaxDelay  time.Duration `json:"max_delay,omitempty"`
}

// withDefaults fills the zero values in and validates the result.
func (c Config) withDefaults() (Config, error) {
	if c.Driver == "" {
		c.Driver = DriverInproc
	}
	if c.Driver != DriverInproc && c.Driver != DriverTCP && c.Driver != DriverService {
		return c, fmt.Errorf("loadgen: unknown driver %q (valid: %s, %s, %s)",
			c.Driver, DriverInproc, DriverTCP, DriverService)
	}
	if c.N < 2 {
		return c, fmt.Errorf("loadgen: need at least 2 sites, got %d", c.N)
	}
	if c.Resources == 0 {
		c.Resources = 1
	}
	if c.Resources < 1 {
		return c, fmt.Errorf("loadgen: need at least one resource, got %d", c.Resources)
	}
	if c.Dist == "" {
		c.Dist = DistUniform
	}
	if c.Dist == DistZipf && c.ZipfS == 0 {
		c.ZipfS = 1.2
	}
	if _, err := NewKeyDist(c.Dist, c.ZipfS, c.Resources, rand.New(rand.NewSource(0))); err != nil {
		return c, err
	}
	if c.Arrival == "" {
		c.Arrival = ArrivalClosed
	}
	switch c.Arrival {
	case ArrivalClosed:
		c.Rate = 0 // open-loop knob; keep closed-loop records unambiguous
	case ArrivalOpen:
		c.Think = 0 // closed-loop knob
		if c.Rate <= 0 {
			return c, fmt.Errorf("loadgen: open-loop arrivals need Rate > 0, got %v", c.Rate)
		}
	default:
		return c, fmt.Errorf("loadgen: unknown arrival model %q (valid: %s, %s)",
			c.Arrival, ArrivalClosed, ArrivalOpen)
	}
	if c.Workers == 0 {
		if c.Driver == DriverService && c.Clients > 0 {
			c.Workers = c.Clients
		} else {
			c.Workers = c.N
		}
	}
	if c.Workers < 1 {
		return c, fmt.Errorf("loadgen: need at least one worker, got %d", c.Workers)
	}
	if c.Measure <= 0 {
		return c, fmt.Errorf("loadgen: need a positive measure window, got %v", c.Measure)
	}
	if c.Drain == 0 {
		c.Drain = 5 * time.Second
	}
	if c.Driver != DriverInproc && c.Chaos != nil {
		return c, fmt.Errorf("loadgen: chaos plans apply to the in-process driver only")
	}
	if c.Reconfigure != 0 {
		if c.Driver != DriverInproc {
			return c, fmt.Errorf("loadgen: mid-load reconfiguration applies to the in-process driver only")
		}
		if c.Reconfigure <= c.N {
			return c, fmt.Errorf("loadgen: Reconfigure must grow the cluster (target %d, current %d)",
				c.Reconfigure, c.N)
		}
	}
	switch c.Driver {
	case DriverService:
		if c.Clients == 0 {
			c.Clients = c.Workers
		}
		if c.Clients < 1 {
			return c, fmt.Errorf("loadgen: need at least one client, got %d", c.Clients)
		}
	default:
		if c.Clients != 0 {
			return c, fmt.Errorf("loadgen: Clients applies to the service driver only")
		}
		if c.Lease != 0 {
			return c, fmt.Errorf("loadgen: Lease applies to the service driver only")
		}
	}
	return c, nil
}

// population is the lock-handle index space of a run: sites for the site
// drivers, sessions for the service driver.
func (c Config) population() int {
	if c.Driver == DriverService {
		return c.Clients
	}
	return c.N
}

// resourceName returns the canonical name of resource i.
func resourceName(i int) string { return fmt.Sprintf("r%d", i) }
