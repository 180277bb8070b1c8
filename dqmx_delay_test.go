package dqmx_test

// The paper's headline claim on the live runtime: a contended hand-off costs
// one message delay T under the delay-optimal protocol and two under
// Maekawa's. The body below runs once per build; which clock it runs on and
// what it asserts come from a pair of build-tagged files:
//
//   - delay_host_test.go (the default build): the host clock. Scheduling
//     noise rides on every hop, so it asserts the shape only — Maekawa's
//     median hand-off at least 1.3× the delay-optimal one — and the TCP row
//     below checks that transfers flow under delay-optimal alone.
//   - delay_vt_test.go (GOEXPERIMENT=synctest, `make vt`): each cluster runs
//     in a testing/synctest bubble, whose clock advances only when every
//     goroutine waits, so a hop costs exactly T and the measured delay is
//     held to the simulator's figure at the same N, load and E/T.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dqmx"
)

// The chaos plan's per-hop delay T, liveT, comes with the clock, from the
// build-tagged files.
const (
	liveHold  = liveT / 100 // E, at the simulator's default E/T = 0.01
	livePerCS = 10          // critical sections per saturating site
)

// liveRow is one line of the logged table: a saturated in-process cluster's
// measured synchronization delay beside the simulator's for the same N,
// protocol, load and E/T.
type liveRow struct {
	n         int
	protocol  dqmx.Protocol
	mean, p50 float64 // live synchronization delay, in T
	sim       float64 // simulated mean synchronization delay, in T
	samples   uint64  // hand-offs behind the live figures
	transfers uint64  // transfer messages sent
	err       error
}

// gap is the live mean's relative distance from the simulator's.
func (r liveRow) gap() float64 { return r.mean/r.sim - 1 }

// TestLiveSyncDelayInT saturates one lock from every site of a grid cluster
// whose chaos plan delays each message by exactly T, reads the handover
// delay from the cluster's metrics, and sets it beside the simulator's. Each
// grid size is a subtest holding both protocols' rows.
func TestLiveSyncDelayInT(t *testing.T) {
	for _, n := range []int{9, 25} {
		t.Run(fmt.Sprintf("inproc-grid%d", n), func(t *testing.T) {
			var rows []liveRow
			for _, p := range []dqmx.Protocol{dqmx.DelayOptimal, dqmx.Maekawa} {
				var row liveRow
				inBubble(func() { row = measureSyncDelay(n, p) })
				if row.err != nil {
					t.Fatalf("N=%d %s: %v", n, p, row.err)
				}
				sim, err := dqmx.Simulate(n, dqmx.Options{Protocol: p}, dqmx.HeavyLoad, livePerCS, 1)
				if err != nil {
					t.Fatal(err)
				}
				row.sim = sim.SyncDelayT
				rows = append(rows, row)
			}
			var b strings.Builder
			fmt.Fprintf(&b, "%-3s %-14s %9s %9s %9s %7s %8s\n", "N", "hand-off", "live T", "live p50", "sim T", "gap", "samples")
			for _, r := range rows {
				fmt.Fprintf(&b, "%-3d %-14s %9.3f %9.3f %9.3f %+6.1f%% %8d\n",
					r.n, r.protocol, r.mean, r.p50, r.sim, 100*r.gap(), r.samples)
			}
			t.Logf("live runtime, T = %v, E = %v, %d CS per site:\n%s", liveT, liveHold, livePerCS, b.String())
			for _, r := range rows {
				if r.samples == 0 {
					t.Fatalf("N=%d %s: no contended hand-off measured", r.n, r.protocol)
				}
				if want := r.protocol == dqmx.DelayOptimal; (r.transfers > 0) != want {
					t.Errorf("N=%d %s: %d transfer messages, want them only under %s", r.n, r.protocol, r.transfers, dqmx.DelayOptimal)
				}
			}
			checkSyncDelay(t, rows)
		})
	}

	// Over loopback TCP a hop costs what the kernel makes it cost, not T,
	// and a bubble's clock cannot wait on a socket: this row runs on the
	// host clock in both builds and checks the mechanism only.
	t.Run("tcp", func(t *testing.T) {
		for _, p := range []dqmx.Protocol{dqmx.DelayOptimal, dqmx.Maekawa} {
			opts := make([]dqmx.Options, 9)
			for i := range opts {
				opts[i] = dqmx.Options{Protocol: p, Observe: dqmx.ObserveConfig{Metrics: true}}
			}
			peers := newTCPCluster(t, opts)
			locks := make([]*dqmx.Lock, len(peers))
			for i, peer := range peers {
				var err error
				if locks[i], err = peer.Lock("live"); err != nil {
					t.Fatal(err)
				}
			}
			if err := saturate(locks); err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			var transfers uint64
			for _, peer := range peers {
				snap, _ := peer.Snapshot()
				transfers += snap.ByKind["transfer"]
			}
			t.Logf("%s over TCP: %d transfer messages", p, transfers)
			if want := p == dqmx.DelayOptimal; (transfers > 0) != want {
				t.Errorf("%s over TCP: %d transfer messages, want them only under %s", p, transfers, dqmx.DelayOptimal)
			}
		}
	})
}

// measureSyncDelay runs one saturated cluster to completion. It reports
// failures in the row rather than through t, so it can run in a bubble.
func measureSyncDelay(n int, p dqmx.Protocol) liveRow {
	row := liveRow{n: n, protocol: p}
	c, err := dqmx.NewClusterWith(n, dqmx.Options{
		Protocol: p,
		Observe:  dqmx.ObserveConfig{Metrics: true},
		Faults:   dqmx.FaultConfig{Chaos: &dqmx.ChaosPlan{Seed: 1, MinDelay: liveT, MaxDelay: liveT}},
	})
	if err != nil {
		row.err = err
		return row
	}
	defer c.Close()
	locks := make([]*dqmx.Lock, n)
	for id := range locks {
		if locks[id], err = c.LockOn(dqmx.SiteID(id), "live"); err != nil {
			row.err = err
			return row
		}
	}
	if row.err = saturate(locks); row.err != nil {
		return row
	}
	snap, _ := c.Snapshot()
	unit := float64(liveT)
	row.mean, row.p50 = snap.SyncDelay.Mean/unit, float64(snap.SyncDelay.P50)/unit
	row.samples, row.transfers = snap.SyncDelay.Count, snap.ByKind["transfer"]
	return row
}

// saturate has every lock handle acquire, hold for E and release, livePerCS
// times back to back, and returns the first error.
func saturate(locks []*dqmx.Lock) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errC := make(chan error, len(locks))
	for _, lock := range locks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < livePerCS; i++ {
				if err := lock.Acquire(ctx); err != nil {
					errC <- err
					return
				}
				time.Sleep(liveHold)
				if err := lock.Release(); err != nil {
					errC <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errC)
	return <-errC
}
