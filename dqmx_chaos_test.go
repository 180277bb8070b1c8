package dqmx_test

// Public-surface adversarial tests: lock contention under the race
// detector, double-release semantics, and context cancellation while the
// chaos layer partitions a site away from its quorum.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dqmx"
)

// TestLockContentionTwoResources hammers TryAcquire on two named locks from
// every site of one cluster concurrently, verifying local mutual exclusion
// per resource and that the two resources never serialize against each
// other's counters. Run under -race this also probes the lock manager's
// internal synchronization.
func TestLockContentionTwoResources(t *testing.T) {
	cluster, err := dqmx.NewCluster(5)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	resources := []string{"contend-a", "contend-b"}
	inCS := make([]atomic.Int32, len(resources))
	entries := make([]atomic.Int32, len(resources))
	var wg sync.WaitGroup
	for ri, name := range resources {
		for id := 0; id < cluster.N(); id++ {
			lock, err := cluster.LockOn(dqmx.SiteID(id), name)
			if err != nil {
				t.Fatal(err)
			}
			ri := ri
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 4; round++ {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					ok, err := lock.TryAcquire(ctx)
					cancel()
					if err != nil {
						// The shared per-name handle serializes local callers;
						// LockOn handles are distinct per site, so ErrBusy
						// here would be a protocol admission bug.
						t.Errorf("site TryAcquire: %v", err)
						return
					}
					if !ok {
						continue
					}
					if got := inCS[ri].Add(1); got != 1 {
						t.Errorf("resource %q: %d concurrent holders", resources[ri], got)
					}
					entries[ri].Add(1)
					time.Sleep(50 * time.Microsecond)
					inCS[ri].Add(-1)
					if err := lock.Release(); err != nil {
						t.Errorf("release: %v", err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	for ri, name := range resources {
		if got := entries[ri].Load(); got != int32(4*cluster.N()) {
			t.Errorf("resource %q: %d entries, want %d", name, got, 4*cluster.N())
		}
	}
}

// TestLockDoubleRelease pins Release's contract on both resources of one
// site set: releasing a held lock succeeds once, and releasing again —
// or without ever acquiring — reports ErrNotHeld.
func TestLockDoubleRelease(t *testing.T) {
	cluster, err := dqmx.NewCluster(5)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	for _, name := range []string{"dr-a", "dr-b"} {
		lock, err := cluster.Lock(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := lock.Release(); !errors.Is(err, dqmx.ErrNotHeld) {
			t.Fatalf("%q: release before acquire: got %v, want ErrNotHeld", name, err)
		}
		if err := lock.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := lock.Release(); err != nil {
			t.Fatalf("%q: first release: %v", name, err)
		}
		if err := lock.Release(); !errors.Is(err, dqmx.ErrNotHeld) {
			t.Fatalf("%q: double release: got %v, want ErrNotHeld", name, err)
		}
	}
}

// TestAcquireCtxUnderPartition: when the chaos layer cuts a site off from
// its quorum, Acquire must return promptly with the context's error instead
// of hanging — while the rest of the cluster keeps working.
func TestAcquireCtxUnderPartition(t *testing.T) {
	// On the 3x3 grid, site 4's quorum is {1,3,4,5,7} and site 0's is
	// {0,1,2,3,6}: cutting 4 strands its own acquires without touching any
	// arbiter site 0 needs.
	const cut = dqmx.SiteID(4)
	cluster, err := dqmx.NewClusterWith(9, dqmx.Options{
		Faults: dqmx.FaultConfig{Chaos: &dqmx.ChaosPlan{
			Seed: 1,
			// A little latency keeps the request wave genuinely in flight
			// when the cut swallows it.
			MinDelay:   2 * time.Millisecond,
			MaxDelay:   5 * time.Millisecond,
			Partitions: []dqmx.ChaosPartition{{Start: 0, End: time.Hour, Group: []dqmx.SiteID{cut}}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// The majority side is unaffected by the minority cut.
	side := cluster.Node(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := side.Acquire(ctx); err != nil {
		cancel()
		t.Fatalf("majority-side acquire failed under minority partition: %v", err)
	}
	cancel()
	if err := side.Release(); err != nil {
		t.Fatal(err)
	}

	// The cut site's acquire cannot complete; it must surface ctx.Err()
	// promptly once the deadline passes.
	ctx, cancel = context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = cluster.Node(cut).Acquire(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("partitioned acquire: got %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("partitioned acquire took %v to honor a 200ms deadline", elapsed)
	}
}
