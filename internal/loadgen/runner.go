package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dqmx"
	"dqmx/internal/obs"
)

// Report is the result of one live run: the configuration that produced it
// and everything measured inside the measure window. It marshals directly
// into the BENCH_live_*.json artifact (all delay stats in nanoseconds).
type Report struct {
	Driver   string `json:"driver"`
	Protocol string `json:"protocol"`
	Quorum   string `json:"quorum"`
	N        int    `json:"n"`
	// Clients is the leased-session count of a service run; zero for site
	// drivers, whose population is the N sites themselves.
	Clients   int     `json:"clients,omitempty"`
	Resources int     `json:"resources"`
	Dist      string  `json:"dist"`
	ZipfS     float64 `json:"zipf_s,omitempty"`
	Arrival   string  `json:"arrival"`
	Workers   int     `json:"workers"`
	// RatePerSec is the open-loop arrival rate; zero for closed loops.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	ThinkMS    float64 `json:"think_ms,omitempty"`
	HoldMS     float64 `json:"hold_ms,omitempty"`
	HopDelayMS float64 `json:"hop_delay_ms,omitempty"`
	// Transfer is false when the protocol was maekawa: every handover on
	// the 2T release path. Derived from Protocol; kept for old artifacts.
	Transfer bool             `json:"transfer"`
	Chaos    *ChaosPlanConfig `json:"chaos,omitempty"`
	Seed     int64            `json:"seed"`

	WarmupMS  float64 `json:"warmup_ms"`
	MeasureMS float64 `json:"measure_ms"`

	// Ops counts client operations completed inside the measure window;
	// Throughput is protocol CS executions (exits) per second over the
	// same window.
	Ops        uint64  `json:"ops"`
	Throughput float64 `json:"throughput_per_sec"`
	// Acquire is the client-observed acquire latency: Acquire call (or,
	// open-loop, scheduled arrival) to grant.
	Acquire obs.DelayStats `json:"acquire_ns"`
	// Handoff is the protocol-level release→next-entry delay over contended
	// handovers — the paper's synchronization delay, the A/B target.
	Handoff obs.DelayStats `json:"handoff_ns"`
	// Waiting is the protocol-level request→entry delay.
	Waiting obs.DelayStats `json:"waiting_ns"`
	// Message accounting over the measure window.
	Messages      uint64            `json:"messages"`
	MessagesPerCS float64           `json:"messages_per_cs"`
	ByKind        map[string]uint64 `json:"by_kind,omitempty"`
	Retransmits   uint64            `json:"retransmits"`

	// Mid-load reconfiguration (Config.Reconfigure): the target size, the
	// epoch after the switch, how long the joint-quorum handover took, and
	// the acquire latency split by when the operation completed relative to
	// the switch — the "p99 across the epoch switch" claim lives in
	// AcquireDuring/AcquireAfter versus AcquireBefore.
	ReconfigureN  int             `json:"reconfigure_n,omitempty"`
	EpochAfter    uint64          `json:"epoch_after,omitempty"`
	SwitchMS      float64         `json:"switch_ms,omitempty"`
	AcquireBefore *obs.DelayStats `json:"acquire_before_ns,omitempty"`
	AcquireDuring *obs.DelayStats `json:"acquire_during_ns,omitempty"`
	AcquireAfter  *obs.DelayStats `json:"acquire_after_ns,omitempty"`
}

// phase values for the run controller.
const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseDrain
)

// recorder is one worker's private sample store; merged after the workers
// stop, so the hot path takes no locks. The phases histograms split samples
// around a mid-load reconfiguration (before/during/after the switch) and
// stay empty otherwise.
type recorder struct {
	hist   obs.Histogram
	phases [3]obs.Histogram
	ops    uint64
}

// arrival is one open-loop operation: when it was scheduled and for which
// resource.
type arrival struct {
	at  time.Time
	key int
}

// Run executes one configured live benchmark and reports what the measure
// window saw.
func Run(cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	metrics := obs.NewMetrics()
	tracker := obs.NewDelayTracker()
	drv, err := newDriver(cfg, obs.Tee(metrics.Observe, tracker.Observe))
	if err != nil {
		return nil, err
	}
	defer drv.close()

	// Pre-instantiate every (worker, resource) handle so instantiation cost
	// never lands inside the run. Worker w issues requests as member
	// w mod population — a site on the site drivers, a leased session on
	// the service driver.
	pop := cfg.population()
	handles := make([][]*dqmx.Lock, cfg.Workers)
	for w := range handles {
		handles[w] = make([]*dqmx.Lock, cfg.Resources)
		for r := 0; r < cfg.Resources; r++ {
			h, err := drv.lock(w%pop, resourceName(r))
			if err != nil {
				return nil, fmt.Errorf("loadgen: lock handle (member %d, %s): %w",
					w%pop, resourceName(r), err)
			}
			handles[w][r] = h
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var phase atomic.Int32
	stop := make(chan struct{})
	recs := make([]recorder, cfg.Workers)
	var wg sync.WaitGroup

	// switchPhase tracks a mid-load reconfiguration: 0 before the switch
	// starts, 1 while the handover runs, 2 once it completes. Samples are
	// classified by when the acquire finished — an acquire completing during
	// the switch experienced it.
	var switchPhase atomic.Int32
	runOp := func(ctx context.Context, w int, key int, start time.Time) {
		h := handles[w][key]
		if err := h.Acquire(ctx); err != nil {
			return // cancelled during drain
		}
		if phase.Load() == phaseMeasure {
			lat := time.Since(start).Nanoseconds()
			recs[w].hist.Add(lat)
			if cfg.Reconfigure > 0 {
				recs[w].phases[switchPhase.Load()].Add(lat)
			}
			recs[w].ops++
		}
		if cfg.Hold > 0 {
			time.Sleep(cfg.Hold)
		}
		_ = h.Release()
	}

	switch cfg.Arrival {
	case ArrivalClosed:
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919 + 1))
				dist, _ := NewKeyDist(cfg.Dist, cfg.ZipfS, cfg.Resources, rng)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if think := ThinkTime(rng, cfg.Think); think > 0 {
						select {
						case <-stop:
							return
						case <-time.After(think):
						}
					}
					runOp(ctx, w, dist.Next(), time.Now())
				}
			}(w)
		}
	case ArrivalOpen:
		arrivals := make(chan arrival, 4*cfg.Workers)
		wg.Add(1)
		go func() { // dispatcher: the Poisson clock
			defer wg.Done()
			defer close(arrivals)
			rng := rand.New(rand.NewSource(cfg.Seed))
			dist, _ := NewKeyDist(cfg.Dist, cfg.ZipfS, cfg.Resources, rng)
			for {
				select {
				case <-stop:
					return
				case <-time.After(Interarrival(rng, cfg.Rate)):
				}
				// A full backlog blocks the clock: the run degrades toward
				// closed-loop at overload instead of hoarding goroutines.
				select {
				case arrivals <- arrival{at: time.Now(), key: dist.Next()}:
				case <-stop:
					return
				}
			}
		}()
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for a := range arrivals {
					// Latency counts from the scheduled arrival: backlog
					// queueing is the system's fault, not the client's.
					runOp(ctx, w, a.key, a.at)
				}
			}(w)
		}
	}

	// Warmup → open the measurement window → measure → close it. A mid-load
	// reconfiguration fires a third of the way in, so the window sees steady
	// state on both sides of the epoch switch.
	time.Sleep(cfg.Warmup)
	before := metrics.Snapshot()
	tracker.StartRecording()
	phase.Store(phaseMeasure)
	t0 := time.Now()
	var (
		switchDur  time.Duration
		epochAfter uint64
	)
	if cfg.Reconfigure > 0 {
		time.Sleep(cfg.Measure / 3)
		switchPhase.Store(1)
		rctx, rcancel := context.WithTimeout(ctx, cfg.Measure+cfg.Drain)
		s0 := time.Now()
		epochAfter, err = drv.reconfigure(rctx, cfg.Reconfigure)
		switchDur = time.Since(s0)
		rcancel()
		if err != nil {
			close(stop)
			cancel()
			wg.Wait()
			return nil, fmt.Errorf("loadgen: reconfigure to %d sites: %w", cfg.Reconfigure, err)
		}
		switchPhase.Store(2)
		if rest := cfg.Measure - cfg.Measure/3 - switchDur; rest > 0 {
			time.Sleep(rest)
		}
	} else {
		time.Sleep(cfg.Measure)
	}
	measured := time.Since(t0)
	phase.Store(phaseDrain)
	tracker.StopRecording()
	after := metrics.Snapshot()

	// Drain: stop new operations, give in-flight ones until the drain
	// budget, then cancel whatever is still stuck.
	close(stop)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(cfg.Drain):
		cancel()
		<-done
	}

	var acquire obs.Histogram
	var phased [3]obs.Histogram
	var ops uint64
	for w := range recs {
		acquire.Merge(&recs[w].hist)
		for p := range phased {
			phased[p].Merge(&recs[w].phases[p])
		}
		ops += recs[w].ops
	}
	exits := after.Exits - before.Exits
	messages := after.Messages - before.Messages
	rep := &Report{
		Driver:     cfg.Driver,
		Protocol:   protocolName(cfg.Protocol),
		Quorum:     quorumName(cfg.Quorum),
		N:          cfg.N,
		Clients:    cfg.Clients,
		Resources:  cfg.Resources,
		Dist:       cfg.Dist,
		ZipfS:      cfg.ZipfS,
		Arrival:    cfg.Arrival,
		Workers:    cfg.Workers,
		RatePerSec: cfg.Rate,
		ThinkMS:    ms(cfg.Think),
		HoldMS:     ms(cfg.Hold),
		HopDelayMS: ms(cfg.HopDelay),
		Transfer:   cfg.Protocol != "maekawa",
		Chaos:      cfg.Chaos,
		Seed:       cfg.Seed,
		WarmupMS:   ms(cfg.Warmup),
		MeasureMS:  measured.Seconds() * 1000,
		Ops:        ops,
		Throughput: float64(exits) / measured.Seconds(),
		Acquire:    acquire.Stats(),
		Handoff:    tracker.Handoff(),
		Waiting:    tracker.Waiting(),
		Messages:   messages,
		Retransmits: after.Transport.Retransmits -
			before.Transport.Retransmits,
	}
	if cfg.Reconfigure > 0 {
		rep.ReconfigureN = cfg.Reconfigure
		rep.EpochAfter = epochAfter
		rep.SwitchMS = ms(switchDur)
		stats := func(h *obs.Histogram) *obs.DelayStats {
			s := h.Stats()
			return &s
		}
		rep.AcquireBefore = stats(&phased[0])
		rep.AcquireDuring = stats(&phased[1])
		rep.AcquireAfter = stats(&phased[2])
	}
	if exits > 0 {
		rep.MessagesPerCS = float64(messages) / float64(exits)
	}
	if len(after.ByKind) > 0 {
		rep.ByKind = make(map[string]uint64, len(after.ByKind))
		for k, v := range after.ByKind {
			if d := v - before.ByKind[k]; d > 0 {
				rep.ByKind[k] = d
			}
		}
	}
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func protocolName(p string) string {
	if p == "" {
		return "delay-optimal"
	}
	return p
}

func quorumName(q string) string {
	if q == "" {
		return "grid"
	}
	return q
}

// ABResult pairs the two arms of the transfer-versus-fallback experiment on
// otherwise identical configurations.
type ABResult struct {
	// Transfer is the delay-optimal arm (the exiting site forwards).
	Transfer *Report `json:"transfer"`
	// Fallback is the control arm: Maekawa, the same machine with every
	// handover on the 2T release path through the arbiter.
	Fallback *Report `json:"fallback"`
}

// HandoffRatio is fallback p50 handoff delay over transfer p50 — the live
// measurement of the paper's T-versus-2T claim. Zero when either arm
// recorded no handovers.
func (r *ABResult) HandoffRatio() float64 {
	if r.Transfer == nil || r.Fallback == nil ||
		r.Transfer.Handoff.P50 <= 0 || r.Fallback.Handoff.P50 <= 0 {
		return 0
	}
	return float64(r.Fallback.Handoff.P50) / float64(r.Transfer.Handoff.P50)
}

// RunAB runs cfg twice — under delay-optimal, then under maekawa — and pairs
// the reports. cfg.Protocol may name either arm or neither; any other
// protocol has no T-versus-2T pair to compare.
func RunAB(cfg Config) (*ABResult, error) {
	switch cfg.Protocol {
	case "", "delay-optimal", "maekawa":
	default:
		return nil, fmt.Errorf("loadgen: the A/B compares delay-optimal with maekawa; protocol %q is neither", cfg.Protocol)
	}
	cfg.Protocol = "delay-optimal"
	transfer, err := Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("loadgen: transfer arm: %w", err)
	}
	cfg.Protocol = "maekawa"
	fallback, err := Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("loadgen: fallback arm: %w", err)
	}
	return &ABResult{Transfer: transfer, Fallback: fallback}, nil
}
