package workload_test

import (
	"testing"

	"dqmx/internal/core"
	"dqmx/internal/mutex"
	"dqmx/internal/sim"
	"dqmx/internal/workload"
)

func newCluster(t *testing.T, n int) *sim.Cluster {
	t.Helper()
	c, err := sim.NewCluster(sim.Config{
		N: n, Algorithm: core.Algorithm{}, Delay: sim.ConstantDelay{D: 1000}, Seed: 1, CSTime: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSequentialIssuesTotalRequests(t *testing.T) {
	c := newCluster(t, 4)
	workload.Sequential(c, 10, 100000)
	c.Run(0)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if c.Issued() != 10 || c.Completed() != 10 {
		t.Fatalf("issued %d completed %d, want 10/10", c.Issued(), c.Completed())
	}
	// Round-robin: requests alternate across sites with no contention, so
	// every record is fully sequential in time.
	recs := c.Records()
	for i := 1; i < len(recs); i++ {
		if recs[i].Requested < recs[i-1].Entered+c.CSTime() {
			t.Fatalf("sequential workload overlapped: %+v then %+v", recs[i-1], recs[i])
		}
	}
}

func TestSaturatedCompletesPerSiteQuota(t *testing.T) {
	c := newCluster(t, 4)
	workload.Saturated(c, 7)
	c.Run(0)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Completed(), 4*7; got != want {
		t.Fatalf("completed %d, want %d", got, want)
	}
	perSite := map[int]int{}
	for _, r := range c.Records() {
		perSite[int(r.Site)]++
	}
	for s, k := range perSite {
		if k != 7 {
			t.Errorf("site %d completed %d, want 7", s, k)
		}
	}
}

// TestSaturatedChainsOnExitHooks: Saturated must preserve a pre-installed
// OnExit hook instead of replacing it.
func TestSaturatedChainsOnExitHooks(t *testing.T) {
	c := newCluster(t, 2)
	calls := 0
	c.OnExit = func(*sim.Cluster, mutex.SiteID) { calls++ }
	workload.Saturated(c, 3)
	c.Run(0)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if calls != c.Completed() {
		t.Fatalf("pre-installed hook ran %d times, want %d", calls, c.Completed())
	}
}

func TestClosedPoissonCompletesQuota(t *testing.T) {
	for _, think := range []sim.Time{10, 1000, 100000} {
		c := newCluster(t, 5)
		workload.ClosedPoisson(c, think, 4, 9)
		c.Run(0)
		if err := c.Err(); err != nil {
			t.Fatalf("think=%d: %v", think, err)
		}
		if got, want := c.Completed(), 5*4; got != want {
			t.Fatalf("think=%d: completed %d, want %d", think, got, want)
		}
	}
}

func TestClosedPoissonDeterministicPerSeed(t *testing.T) {
	run := func() (uint64, sim.Time) {
		c := newCluster(t, 5)
		workload.ClosedPoisson(c, 5000, 3, 42)
		c.Run(0)
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		return c.Net.Total(), c.Kernel.Now()
	}
	m1, t1 := run()
	m2, t2 := run()
	if m1 != m2 || t1 != t2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", m1, t1, m2, t2)
	}
}
