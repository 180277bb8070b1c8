// Package sweep runs seeded chaos schedules against a live in-process
// cluster and reports conformance results. It is the shared engine behind
// the conformance test suite and the cmd/dqmchaos soak CLI: both derive a
// chaos plan from a seed, drive a multi-resource workload through the
// public acquire/release path, and collect the checker's verdict.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dqmx/internal/chaos"
	"dqmx/internal/clock"
	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
	"dqmx/internal/resource"
	"dqmx/internal/transport"
)

// Config describes one schedule: the cluster under test and the workload
// driven through it.
type Config struct {
	// Algorithm builds the cluster's site machines.
	Algorithm mutex.Algorithm
	// N is the site count.
	N int
	// Plan is the chaos schedule.
	Plan chaos.Plan
	// Resources are the named locks the workload contends on.
	Resources []string
	// PerSite is how many acquire/release rounds each site runs per
	// resource.
	PerSite int
	// AcquireTimeout bounds each acquire attempt. With the reliability
	// sublayer healing drops, only crash and partition schedules still rely
	// on it; liveness-expected plans get a generous deadline that a
	// conforming run never hits.
	AcquireTimeout time.Duration
	// Hold is the simulated critical-section duration.
	Hold time.Duration
	// Assignment, when non-nil, enables the message-bound check for quiet
	// plans (bounds derived via chaos.MessageBounds).
	Assignment *coterie.Assignment
	// Patience is the liveness watchdog threshold; zero disables the
	// watchdog. Stalls are only reported as failures by the caller and only
	// make sense for lossless plans.
	Patience time.Duration
}

// Result is one schedule's outcome.
type Result struct {
	// Violations are the conformance breaches the checker recorded; any
	// entry is a failure of the run.
	Violations []chaos.Violation
	// Stalls are watchdog hits with their per-site state dumps attached.
	Stalls []string
	// Acquired and Missed count workload rounds that entered the CS versus
	// timed out or hit a closed (crashed) site.
	Acquired, Missed int
	// Retransmits, DupSuppressed, and AcksSent report the reliability
	// sublayer's work during the schedule. A quiet plan must show zero
	// retransmissions (enforced as a "transport" violation).
	Retransmits, DupSuppressed, AcksSent uint64
}

// Failed reports whether the schedule violated a checked invariant.
func (r Result) Failed() bool { return len(r.Violations) > 0 }

// Run executes one schedule and returns its conformance result. Workload
// errors other than crash-induced closures are returned as err.
func Run(cfg Config) (Result, error) {
	checker := chaos.NewChecker()
	cluster, err := transport.NewClusterConfig(transport.ClusterConfig{
		Algorithm: cfg.Algorithm,
		N:         cfg.N,
		Observer:  checker.Observe,
		Chaos:     &cfg.Plan,
	})
	if err != nil {
		return Result{}, fmt.Errorf("sweep: build cluster: %w", err)
	}
	defer cluster.Close()
	cluster.SetDeliveryHook(checker.Delivered)

	var res Result
	var resMu sync.Mutex
	var watchdog *chaos.Watchdog
	if cfg.Patience > 0 {
		watchdog = chaos.NewWatchdog(checker, cfg.Patience/4+time.Millisecond, cfg.Patience,
			cluster.DumpState,
			func(s chaos.Stall, dump string) {
				resMu.Lock()
				res.Stalls = append(res.Stalls,
					fmt.Sprintf("resource %q site %d stalled for %v\n%s", s.Resource, s.Site, s.Age, dump))
				resMu.Unlock()
			})
	}

	// One worker per (site, resource): each site runs its rounds for a lock
	// sequentially, sites and locks contend concurrently.
	var wg sync.WaitGroup
	errC := make(chan error, cfg.N*len(cfg.Resources))
	for id := 0; id < cfg.N; id++ {
		for _, name := range cfg.Resources {
			lock, err := cluster.Lock(mutex.SiteID(id), name)
			if errors.Is(err, resource.ErrClosed) {
				// The plan crashed the site before its handle was taken: its
				// rounds are missed, as a worker's are when its site crashes.
				resMu.Lock()
				res.Missed += cfg.PerSite
				resMu.Unlock()
				continue
			}
			if err != nil {
				return Result{}, fmt.Errorf("sweep: lock %q at site %d: %w", name, id, err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < cfg.PerSite; round++ {
					ctx, cancel := context.WithTimeout(context.Background(), cfg.AcquireTimeout)
					ok, err := lock.TryAcquire(ctx)
					cancel()
					if err != nil {
						// A crashed site's instances report closure; that is
						// the schedule working, not a harness failure.
						if errors.Is(err, transport.ErrClosed) {
							resMu.Lock()
							res.Missed++
							resMu.Unlock()
							return
						}
						// ErrBusy follows a timed-out round on a lossy
						// schedule: the abandoned request is still in
						// flight, so this round is missed too.
						if errors.Is(err, transport.ErrBusy) {
							resMu.Lock()
							res.Missed++
							resMu.Unlock()
							clock.Sleep(clock.Real, time.Millisecond, nil)
							continue
						}
						errC <- err
						return
					}
					resMu.Lock()
					if ok {
						res.Acquired++
					} else {
						res.Missed++
					}
					resMu.Unlock()
					if !ok {
						continue
					}
					if cfg.Hold > 0 {
						clock.Sleep(clock.Real, cfg.Hold, nil)
					}
					if err := lock.Release(); err != nil && !errors.Is(err, transport.ErrClosed) {
						errC <- fmt.Errorf("release: %w", err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	if watchdog != nil {
		watchdog.Stop()
	}
	close(errC)
	for err := range errC {
		return res, fmt.Errorf("sweep: workload: %w", err)
	}
	if cfg.Assignment != nil && cfg.Plan.Quiet() {
		// Quiescent and fault-free: sends are counted at the sender before
		// Release returns, so the totals are final once the workload joins.
		lo, hi := chaos.MessageBounds(cfg.Assignment)
		checker.CheckBounds(lo, hi)
	}
	res.Retransmits, res.DupSuppressed, res.AcksSent = checker.Transport()
	res.Violations = checker.Violations()
	if cfg.Plan.Quiet() && res.Retransmits > 0 {
		// A fault-free wire must never trip the retransmission timer: a
		// spurious retransmit means the backoff undercuts the ack path.
		res.Violations = append(res.Violations, chaos.Violation{
			Kind:   "transport",
			Detail: fmt.Sprintf("%d retransmissions on a fault-free schedule", res.Retransmits),
		})
	}
	return res, nil
}

// RandomPlan derives schedule number seed deterministically: a mix of
// quiet, delay-only, lossy, crash, and partition archetypes so a sweep
// covers the fault space while each seed reproduces its schedule exactly.
// n is the cluster size (used to pick crash victims and partition groups).
func RandomPlan(seed int64, n int) chaos.Plan {
	p := chaos.Plan{Seed: seed}
	draw := func(k uint64) float64 {
		x := splitmix(uint64(seed) ^ 0xC0FFEE ^ k)
		return float64(x>>11) / float64(1<<53)
	}
	switch kind := int(splitmix(uint64(seed)) % 5); kind {
	case 0:
		// Quiet: fault-free baseline, eligible for the message-bound check.
	case 1:
		// Delay + reorder: lossless, so liveness must hold.
		p.MinDelay = 100 * time.Microsecond
		p.MaxDelay = time.Duration(1+draw(1)*4) * time.Millisecond
		p.Reorder = 0.1 + 0.3*draw(2)
	case 2:
		// Lossy: drops on top of delay and reordering.
		p.Drop = 0.02 + 0.1*draw(1)
		p.Reorder = 0.2 * draw(2)
		p.MaxDelay = time.Duration(1+draw(3)*3) * time.Millisecond
	case 3:
		// Crash: one victim mid-run, detection shortly after, plus delays.
		victim := mutex.SiteID(splitmix(uint64(seed)^0xDEAD) % uint64(n))
		p.MaxDelay = time.Duration(1+draw(1)*2) * time.Millisecond
		p.Crashes = []chaos.Crash{{
			After:       time.Duration(2+draw(2)*10) * time.Millisecond,
			Site:        victim,
			DetectAfter: time.Duration(1+draw(3)*5) * time.Millisecond,
		}}
	case 4:
		// Partition: a minority group is cut off for a window, then heals.
		size := 1 + int(splitmix(uint64(seed)^0xBEEF)%uint64((n-1)/2))
		group := make([]mutex.SiteID, 0, size)
		first := int(splitmix(uint64(seed)^0xF00D) % uint64(n))
		for i := 0; i < size; i++ {
			group = append(group, mutex.SiteID((first+i)%n))
		}
		start := time.Duration(draw(1)*10) * time.Millisecond
		p.Partitions = []chaos.Partition{{
			Start: start,
			End:   start + time.Duration(5+draw(2)*20)*time.Millisecond,
			Group: group,
		}}
		p.MaxDelay = time.Duration(draw(3)*2) * time.Millisecond
	}
	return p
}

// splitmix mirrors the fabric's decision hash for plan derivation.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
