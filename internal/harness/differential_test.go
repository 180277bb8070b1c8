package harness

import (
	"testing"

	"dqmx/internal/sim"
	"dqmx/internal/workload"
)

// Differential tests: every algorithm must behave identically at the
// specification level — same completions, non-overlapping CS intervals,
// deterministic replay — under identical workloads.

// TestAllAlgorithmsNonOverlappingSchedules replays one workload through
// every algorithm and verifies the CS intervals never overlap (a stronger,
// record-level check than the online monitor) and that everyone completes.
func TestAllAlgorithmsNonOverlappingSchedules(t *testing.T) {
	const (
		n       = 9
		perSite = 6
	)
	for _, e := range Algorithms() {
		e := e
		t.Run(e.Algorithm.Name(), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				c, err := sim.NewCluster(sim.Config{
					N: n, Algorithm: e.Algorithm, Delay: sim.ExponentialDelay{MeanD: DefaultDelay},
					Seed: seed, CSTime: 50,
				})
				if err != nil {
					t.Fatal(err)
				}
				workload.Saturated(c, perSite)
				c.Run(0)
				if err := c.Err(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				recs := c.Records()
				if len(recs) != n*perSite {
					t.Fatalf("seed %d: %d records, want %d", seed, len(recs), n*perSite)
				}
				for i := 1; i < len(recs); i++ {
					if recs[i].Entered < recs[i-1].Entered+c.CSTime() {
						t.Fatalf("seed %d: CS overlap: %+v then %+v", seed, recs[i-1], recs[i])
					}
				}
			}
		})
	}
}

// TestDeterministicReplay: identical seeds must give bit-identical metrics
// for every algorithm — the property that makes the evaluation reproducible.
func TestDeterministicReplay(t *testing.T) {
	for _, e := range Algorithms() {
		run := func() sim.Result {
			res, err := Run(Spec{
				N: 9, Algorithm: e.Algorithm, Load: Heavy, PerSite: 4, Seed: 77,
				Delay: sim.ExponentialDelay{MeanD: DefaultDelay},
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(), run()
		if a.TotalMessages != b.TotalMessages || a.SyncDelay != b.SyncDelay ||
			a.Throughput != b.Throughput || a.ResponseTime != b.ResponseTime {
			t.Errorf("%s: replay diverged: %+v vs %+v", e.Algorithm.Name(), a, b)
		}
	}
}

// TestFairnessNoSiteStarves: across a long saturated run, every site
// completes its full quota for every algorithm (per-site fairness, the
// Theorem 3 property).
func TestFairnessNoSiteStarves(t *testing.T) {
	const (
		n       = 9
		perSite = 10
	)
	for _, e := range Algorithms() {
		c, err := sim.NewCluster(sim.Config{
			N: n, Algorithm: e.Algorithm, Delay: sim.ExponentialDelay{MeanD: DefaultDelay},
			Seed: 13, CSTime: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		workload.Saturated(c, perSite)
		c.Run(0)
		if err := c.Err(); err != nil {
			t.Fatalf("%s: %v", e.Algorithm.Name(), err)
		}
		counts := make(map[int]int, n)
		for _, r := range c.Records() {
			counts[int(r.Site)]++
		}
		for i := 0; i < n; i++ {
			if counts[i] != perSite {
				t.Errorf("%s: site %d completed %d of %d", e.Algorithm.Name(), i, counts[i], perSite)
			}
		}
	}
}
