package dqmx_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dqmx"
)

// TestReconfigureIdle grows and shrinks a quiet cluster and checks the
// epoch advances and the roster tracks the target.
func TestReconfigureIdle(t *testing.T) {
	c, err := dqmx.NewCluster(5)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Epoch(); got != 0 {
		t.Fatalf("fresh cluster at epoch %d, want 0", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Reconfigure(ctx, dqmx.Membership{N: 7}); err != nil {
		t.Fatalf("grow 5->7: %v", err)
	}
	if c.N() != 7 || c.Epoch() != 1 {
		t.Fatalf("after grow: n=%d epoch=%d, want n=7 epoch=1", c.N(), c.Epoch())
	}
	// The joined sites must be usable.
	node := c.Node(6)
	if err := node.Acquire(ctx); err != nil {
		t.Fatalf("acquire at joined site: %v", err)
	}
	if err := node.Release(); err != nil {
		t.Fatalf("release at joined site: %v", err)
	}
	if err := c.Reconfigure(ctx, dqmx.Membership{N: 4}); err != nil {
		t.Fatalf("shrink 7->4: %v", err)
	}
	if c.N() != 4 || c.Epoch() != 2 {
		t.Fatalf("after shrink: n=%d epoch=%d, want n=4 epoch=2", c.N(), c.Epoch())
	}
	if err := c.Node(2).Acquire(ctx); err != nil {
		t.Fatalf("acquire after shrink: %v", err)
	}
	if err := c.Node(2).Release(); err != nil {
		t.Fatalf("release after shrink: %v", err)
	}
}

// TestReconfigureUnderLoad is the live grow/shrink acceptance test: a
// 5-site cluster serves a continuous acquire/release load while it grows to
// 7 and then shrinks to 4, once over the default grid quorums and once over
// majority quorums. Mutual exclusion is asserted across every epoch boundary
// with an atomic holder counter, no acquire may fail, and entries must
// complete on both sides of each switch.
func TestReconfigureUnderLoad(t *testing.T) {
	for _, q := range []dqmx.Quorum{dqmx.GridQuorums, dqmx.MajorityQuorums} {
		t.Run(string(q), func(t *testing.T) { reconfigureUnderLoad(t, q) })
	}
}

func reconfigureUnderLoad(t *testing.T, q dqmx.Quorum) {
	c, err := dqmx.NewClusterWith(5, dqmx.Options{Quorum: q})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var (
		holders  atomic.Int32
		entries  atomic.Int64
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		violated atomic.Bool
	)
	// Workers run at the 4 sites that exist in every configuration the test
	// visits (5, 7, and 4 sites).
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			node := c.Node(dqmx.SiteID(id))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := node.Acquire(ctx); err != nil {
					if ctx.Err() == nil {
						t.Errorf("site %d acquire: %v", id, err)
					}
					return
				}
				if holders.Add(1) != 1 {
					violated.Store(true)
				}
				entries.Add(1)
				time.Sleep(200 * time.Microsecond) // the critical section
				if holders.Add(-1) != 0 {
					violated.Store(true)
				}
				if err := node.Release(); err != nil {
					t.Errorf("site %d release: %v", id, err)
					return
				}
			}
		}(id)
	}

	// waitEntries waits for 20 more entries than mark and fails the test,
	// naming the phase, when the cluster stops serving them.
	waitEntries := func(mark int64, phase string) {
		deadline := time.Now().Add(20 * time.Second)
		for entries.Load() < mark+20 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := entries.Load() - mark; got < 20 {
			close(stop)
			wg.Wait()
			t.Fatalf("%s: %d entries in 20s, want 20", phase, got)
		}
	}
	waitEntries(0, "before 5->7")
	if err := c.Reconfigure(ctx, dqmx.Membership{N: 7}); err != nil {
		t.Fatalf("grow 5->7 under load: %v", err)
	}
	waitEntries(entries.Load(), "after 5->7")
	if err := c.Reconfigure(ctx, dqmx.Membership{N: 4}); err != nil {
		t.Fatalf("shrink 7->4 under load: %v", err)
	}
	waitEntries(entries.Load(), "after 7->4")

	close(stop)
	wg.Wait()
	if violated.Load() {
		t.Fatal("mutual exclusion violated across a reconfiguration")
	}
	if c.N() != 4 || c.Epoch() != 2 {
		t.Fatalf("final n=%d epoch=%d, want n=4 epoch=2", c.N(), c.Epoch())
	}
	t.Logf("served %d CS entries across two live reconfigurations", entries.Load())
}

// TestReconfigureWhileHeld starts a switch while a site sits inside the
// critical section: the switch must wait for (or safely overlap) the
// holder, and the lock must keep working afterwards.
func TestReconfigureWhileHeld(t *testing.T) {
	c, err := dqmx.NewCluster(5)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	holder := c.Node(1)
	if err := holder.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Reconfigure(ctx, dqmx.Membership{N: 7}) }()
	// Hold the CS across the start of the handover, then let go.
	time.Sleep(50 * time.Millisecond)
	if err := holder.Release(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("reconfigure with a live holder: %v", err)
	}
	for id := 0; id < 7; id++ {
		n := c.Node(dqmx.SiteID(id))
		if err := n.Acquire(ctx); err != nil {
			t.Fatalf("site %d acquire after switch: %v", id, err)
		}
		if err := n.Release(); err != nil {
			t.Fatalf("site %d release after switch: %v", id, err)
		}
	}
}

// TestReconfigureValidation covers the error surface.
func TestReconfigureValidation(t *testing.T) {
	c, err := dqmx.NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Reconfigure(ctx, dqmx.Membership{N: 0}); err == nil {
		t.Fatal("reconfigure to 0 sites succeeded")
	}
	if err := c.Reconfigure(ctx, dqmx.Membership{N: 4, Quorum: "no-such"}); err == nil {
		t.Fatal("reconfigure with unknown quorum succeeded")
	}
	if c.Epoch() != 0 {
		t.Fatalf("failed reconfigures advanced the epoch to %d", c.Epoch())
	}
}

// TestReconfigureQuorumChange switches the coterie construction along with
// the size: grid at 5 sites to majority at 6.
func TestReconfigureQuorumChange(t *testing.T) {
	c, err := dqmx.NewClusterWith(5, dqmx.Options{Quorum: dqmx.GridQuorums})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Reconfigure(ctx, dqmx.Membership{N: 6, Quorum: dqmx.MajorityQuorums}); err != nil {
		t.Fatalf("grid->majority: %v", err)
	}
	for id := 0; id < 6; id++ {
		n := c.Node(dqmx.SiteID(id))
		if err := n.Acquire(ctx); err != nil {
			t.Fatalf("site %d acquire: %v", id, err)
		}
		if err := n.Release(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReconfigureLateLock is the in-process twin of TestTCPHandoverLateLock:
// a named lock first used after a grid-5 to majority-6 switch runs the new
// coterie at an original site and at the joiner alike, so it excludes.
func TestReconfigureLateLock(t *testing.T) {
	c, err := dqmx.NewClusterWith(5, dqmx.Options{Quorum: dqmx.GridQuorums})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Reconfigure(ctx, dqmx.Membership{N: 6, Quorum: dqmx.MajorityQuorums}); err != nil {
		t.Fatal(err)
	}
	first, err := c.LockOn(2, "late")
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.LockOn(5, "late")
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Acquire(ctx); err != nil {
		t.Fatalf("site 2 acquire: %v", err)
	}
	short, cancelShort := context.WithTimeout(ctx, 500*time.Millisecond)
	defer cancelShort()
	if ok, err := second.TryAcquire(short); err != nil || ok {
		t.Fatalf("site 5 took lock \"late\" while site 2 held it (ok=%v, err=%v)", ok, err)
	}
	if err := first.Release(); err != nil {
		t.Fatal(err)
	}
}

// ExampleCluster_Reconfigure grows a live cluster from five to seven sites.
func ExampleCluster_Reconfigure() {
	cluster, err := dqmx.NewCluster(5)
	if err != nil {
		panic(err)
	}
	defer cluster.Close()

	if err := cluster.Reconfigure(context.Background(), dqmx.Membership{N: 7}); err != nil {
		panic(err)
	}
	fmt.Println(cluster.N(), "sites at epoch", cluster.Epoch())
	// Output: 7 sites at epoch 1
}
