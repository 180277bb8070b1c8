package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
	"dqmx/internal/sim"
	"dqmx/internal/workload"
)

// TestNoOutputAddressesItsSite: a site delivers what it tells itself — its
// request to its own arbiter, that arbiter's reply, a transfer naming it, its
// own release — inside the step that sent it, so no Output carries an
// envelope addressed to the sender. The simulator hands every envelope a site
// returns to its network, whose trace sees each one land; it must never see
// one from a site to itself. Seeded saturated runs over grid-9 and over
// tree-7, the latter with a crash so the §6 rebuild and refresh run too; then
// the majority-3 walks of TestCloneIsIndependent, which swap site 0's quorum
// and crash site 2 mid-run.
func TestNoOutputAddressesItsSite(t *testing.T) {
	for _, run := range []struct {
		name  string
		n     int
		cons  coterie.Construction
		crash bool
	}{
		{"grid-9", 9, coterie.Grid{}, false},
		{"tree-7", 7, coterie.Tree{}, true},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			c, err := sim.NewCluster(sim.Config{
				N: run.n, Algorithm: Algorithm{Construction: run.cons},
				Delay: sim.ExponentialDelay{MeanD: 1000}, Seed: seed, CSTime: 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			var self []string
			c.Net.Trace = func(at sim.Time, env mutex.Envelope) {
				if env.To == env.From {
					self = append(self, fmt.Sprintf("t=%d: site %d sent itself %s", at, env.From, env.PayloadString()))
				}
			}
			workload.Saturated(c, 20)
			if run.crash {
				c.CrashAt(20_000, 0)
			}
			c.Run(0)
			if err := c.Err(); err != nil {
				t.Fatalf("%s seed %d: %v", run.name, seed, err)
			}
			if len(self) > 0 {
				t.Errorf("%s seed %d: %d self-addressed envelopes, the first at %s", run.name, seed, len(self), self[0])
			}
		}
	}

	for seed := int64(1); seed <= 20; seed++ {
		sites, err := Algorithm{Construction: coterie.Majority{}}.NewSites(3)
		if err != nil {
			t.Fatal(err)
		}
		w := &walk{chans: map[[2]mutex.SiteID][]mutex.Envelope{}, crashed: make([]bool, 3), budget: []int{4, 4, 4}}
		for _, s := range sites {
			w.sites = append(w.sites, s.(*Site))
		}
		rng := rand.New(rand.NewSource(seed))
		crashAt, memberAt := rng.Intn(40), rng.Intn(40)
	walk:
		for step := 0; w.step(rng, step == crashAt, step == memberAt); step++ {
			for k, q := range w.chans {
				if k[0] == k[1] && len(q) > 0 {
					t.Errorf("walk seed %d, step %d: site %d sent itself %s", seed, step, k[0], q[0].PayloadString())
					break walk
				}
			}
		}
	}
}
