package sweep

// Reconfiguration conformance archetypes: seeded chaos schedules with a
// joint-quorum membership switch (internal/membership) in the middle of the
// load. The checker's ≤1-holder invariant is asserted across the epoch
// boundary — entries granted under the old coterie, the joint phase, and
// the new coterie must all exclude each other — and one archetype crashes a
// site mid-handover to compose the §6 recovery path with the switch.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dqmx/internal/chaos"
	"dqmx/internal/coterie"
	"dqmx/internal/harness"
	"dqmx/internal/mutex"
	"dqmx/internal/transport"
)

// reconfigurePlan derives the schedule's fault plan: quiet, delayed, or
// lossy. Crashes are injected explicitly by the mid-handover archetype, so
// the derived plans stay crash-free.
func reconfigurePlan(seed int64) chaos.Plan {
	p := chaos.Plan{Seed: seed}
	draw := func(k uint64) float64 {
		x := splitmix(uint64(seed) ^ 0xEC0FFEE ^ k)
		return float64(x>>11) / float64(1<<53)
	}
	switch int(splitmix(uint64(seed)^0x5EED) % 3) {
	case 0:
		// Quiet wire.
	case 1:
		p.MinDelay = 100 * time.Microsecond
		p.MaxDelay = time.Duration(1+draw(1)*3) * time.Millisecond
		p.Reorder = 0.1 + 0.2*draw(2)
	case 2:
		p.Drop = 0.02 + 0.08*draw(1)
		p.MaxDelay = time.Duration(1+draw(2)*2) * time.Millisecond
	}
	return p
}

// runReconfigureSchedule drives continuous contention at every original
// site, switches the cluster from `from` to `to` sites mid-load, and fails
// on any conformance violation. When crashMid is set, one surviving site is
// killed while the handover is in its joint phase.
func runReconfigureSchedule(t *testing.T, seed int64, from, to int, crashMid bool) {
	t.Helper()
	cons := coterie.Majority{}
	alg, err := harness.NewAlgorithm("delay-optimal", cons, false)
	if err != nil {
		t.Fatal(err)
	}
	plan := reconfigurePlan(seed)
	checker := chaos.NewChecker()
	cluster, err := transport.NewClusterConfig(transport.ClusterConfig{
		Algorithm:    alg,
		N:            from,
		Observer:     checker.Observe,
		Chaos:        &plan,
		Construction: cons,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.SetDeliveryHook(checker.Delivered)

	// Continuous contention across the switch: one worker per original
	// site. Workers at crashed or retired sites see ErrClosed and exit —
	// that is the schedule working.
	var (
		acquired atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
	)
	for id := 0; id < from; id++ {
		lock, err := cluster.Lock(mutex.SiteID(id), "alpha")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				ok, err := lock.TryAcquire(ctx)
				cancel()
				if errors.Is(err, transport.ErrClosed) {
					return
				}
				if err != nil && !errors.Is(err, transport.ErrBusy) {
					t.Errorf("seed %d: acquire: %v", seed, err)
					return
				}
				if !ok || err != nil {
					time.Sleep(time.Millisecond)
					continue
				}
				acquired.Add(1)
				time.Sleep(200 * time.Microsecond)
				if err := lock.Release(); err != nil && !errors.Is(err, transport.ErrClosed) {
					t.Errorf("seed %d: release: %v", seed, err)
					return
				}
			}
		}()
	}
	waitUntil(t, 10*time.Second, "pre-switch load", cluster.DumpState,
		func() bool { return acquired.Load() >= int64(from) })

	if crashMid {
		// Kill a survivor (present in both configurations) the moment the
		// joint phase is published, so §6 recovery rebuilds joint req_sets.
		victimC := make(chan struct{})
		go func() {
			defer close(victimC)
			deadline := time.Now().Add(10 * time.Second)
			for !cluster.Stage().Joint() {
				if time.Now().After(deadline) || stop.Load() {
					return
				}
			}
			cluster.KillSite(mutex.SiteID(1), 2*time.Millisecond)
		}()
		defer func() { <-victimC }()
	}

	// Generous deadline: the switch itself is milliseconds, but CI boxes
	// oversubscribe CPU and the drain polls real time.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := cluster.Reconfigure(ctx, cons, to); err != nil {
		t.Fatalf("seed %d: reconfigure %d→%d: %v\nplan: %s\n%s", seed, from, to, err, plan, cluster.DumpState())
	}
	if got := cluster.N(); got != to {
		t.Fatalf("seed %d: %d sites after reconfigure, want %d", seed, got, to)
	}
	if got := cluster.Epoch(); got != 1 {
		t.Fatalf("seed %d: epoch %d after reconfigure, want 1", seed, got)
	}

	// Joined sites must be full participants under the new coterie.
	if to > from {
		lock, err := cluster.Lock(mutex.SiteID(to-1), "alpha")
		if err != nil {
			t.Fatal(err)
		}
		joinCtx, joinCancel := context.WithTimeout(context.Background(), 15*time.Second)
		ok, err := lock.TryAcquire(joinCtx)
		joinCancel()
		if err != nil || !ok {
			t.Fatalf("seed %d: acquire at joined site %d: ok=%v err=%v\n%s", seed, to-1, ok, err, cluster.DumpState())
		}
		if err := lock.Release(); err != nil {
			t.Fatal(err)
		}
	}

	// A little post-switch load, then drain and judge.
	pre := acquired.Load()
	waitUntil(t, 10*time.Second, "post-switch load", cluster.DumpState,
		func() bool { return acquired.Load() > pre })
	stop.Store(true)
	wg.Wait()
	for _, v := range checker.Violations() {
		t.Errorf("seed %d: %s\nplan: %s", seed, v, plan)
	}
}

func waitUntil(t *testing.T, limit time.Duration, what string, dump func() string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			var state string
			if dump != nil {
				state = "\n" + dump()
			}
			t.Fatalf("%s: no progress within %v%s", what, limit, state)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosConformanceReconfigureGrow: 5→7 joint-quorum handovers under
// seeded quiet/delay/lossy schedules, conformance-checked across the epoch
// boundary.
func TestChaosConformanceReconfigureGrow(t *testing.T) {
	for _, seed := range reconfigureSeeds(t, 60000) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runReconfigureSchedule(t, seed, 5, 7, false)
		})
	}
}

// TestChaosConformanceReconfigureShrink: 7→4 handovers with drain-and-retire
// of the departing sites, same checking.
func TestChaosConformanceReconfigureShrink(t *testing.T) {
	for _, seed := range reconfigureSeeds(t, 61000) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runReconfigureSchedule(t, seed, 7, 4, false)
		})
	}
}

// TestChaosConformanceReconfigureCrash: a surviving site crashes while the
// handover is joint, composing §6 recovery (joint req_set rebuilds via
// Handover.JointAvoiding) with the switch. Safety must hold throughout.
func TestChaosConformanceReconfigureCrash(t *testing.T) {
	for _, seed := range reconfigureSeeds(t, 62000) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runReconfigureSchedule(t, seed, 5, 7, true)
		})
	}
}

// reconfigureSeeds picks the per-archetype schedule count, honoring the
// DQMX_CHAOS_SEED replay override and trimming under -short.
func reconfigureSeeds(t *testing.T, base int64) []int64 {
	if seed, ok := chaos.SeedOverride(); ok {
		return []int64{seed}
	}
	n := 8 * soakFactor
	if testing.Short() {
		n = 3
	}
	seeds := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		seeds = append(seeds, base+int64(i))
	}
	return seeds
}
