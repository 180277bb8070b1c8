package core

import (
	"fmt"
	"math/rand"
	"slices"
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

// TestNoNetworkReplyToItsArbitersSite: an arbiter's permission reaches the
// arbiter's own site only inside that site. A holder told to forward it
// there sends no reply, since the release(fwd) to that arbiter says the same,
// and the arbiter grants its site in the step that re-points the lock. So no
// reply the network delivers names its recipient as its arbiter. Saturated
// runs over five coterie shapes under constant, uniform and exponential
// delays, and a tree-15 run whose root and site 3 crash.
func TestNoNetworkReplyToItsArbitersSite(t *testing.T) {
	check := func(name string, cfg sim.Config, crash bool) {
		t.Helper()
		c, err := sim.NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		own, first := 0, ""
		c.Net.Trace = func(at sim.Time, env mutex.Envelope) {
			if env.Body.Kind == mutex.BodyReply && env.Body.Site == env.To {
				if own++; own == 1 {
					first = fmt.Sprintf("t=%d: %d->%d %s", at, env.From, env.To, env.PayloadString())
				}
			}
		}
		workload.Saturated(c, 20)
		if crash {
			c.CrashAt(200_000, 0)
			c.CrashAt(600_000, 3)
		}
		c.Run(0)
		if err := c.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if own > 0 {
			t.Errorf("%s: %d replies delivered to their arbiter's site, the first at %s", name, own, first)
		}
	}
	delays := []struct {
		name string
		d    sim.Delay
	}{
		{"constant", sim.ConstantDelay{D: 1000}},
		{"uniform", sim.UniformDelay{Lo: 500, Hi: 1500}},
		{"exponential", sim.ExponentialDelay{MeanD: 1000}},
	}
	for _, run := range []struct {
		n    int
		cons coterie.Construction
	}{
		{9, coterie.Grid{}}, {25, coterie.Grid{}},
		{7, coterie.Tree{}}, {15, coterie.Tree{}},
		{5, coterie.Majority{}}, {9, coterie.HQC{}},
	} {
		for _, d := range delays {
			check(fmt.Sprintf("%s-%d %s", run.cons.Name(), run.n, d.name), sim.Config{
				N: run.n, Algorithm: Algorithm{Construction: run.cons},
				Delay: d.d, Seed: 1, CSTime: 10,
			}, false)
		}
	}
	check("ae-tree-15 two crashes", sim.Config{
		N: 15, Algorithm: Algorithm{Construction: coterie.Tree{}},
		Delay: sim.ConstantDelay{D: 1000}, Seed: 2, CSTime: 10,
	}, true)
}

// TestOwnArbitersPermissionRidesTheRelease drives ROADMAP 20(i)'s shape by
// hand. Sites 0 and 1 both have quorum {0, 1}. Site 1 holds the CS, and
// arbiter 0 has told it to forward arbiter 0's permission to site 0's own
// request. At exit site 1 sends site 0 no reply for arbiter 0, only the
// release(fwd); site 0 enters in the one Deliver of that release, with its
// arbiter's lock re-pointed at its request in the same step, so no crash can
// fall between the two.
func TestOwnArbitersPermissionRidesTheRelease(t *testing.T) {
	s0, s1 := mkSite(0, 0, 1), mkSite(1, 0, 1)
	var to0, to1 []mutex.Envelope // channels 1→0 and 0→1
	route := func(out mutex.Output) {
		for _, e := range out.Send {
			if e.To == 0 {
				to0 = append(to0, e)
			} else {
				to1 = append(to1, e)
			}
		}
	}
	route(s1.Request())       // (1,1); arbiter 1 grants it inside the step
	route(s0.Deliver(to0[0])) // arbiter 0 grants (1,1)
	to0 = to0[1:]
	route(s0.Request()) // (2,0); arbiter 0 queues it and sends site 1 a transfer
	// Site 1 enters, then learns both arbiters' transfers to (2,0).
	for ; len(to1) > 0; to1 = to1[1:] {
		route(s1.Deliver(to1[0]))
	}
	if !s1.InCS() {
		t.Fatal("site 1 did not enter")
	}
	want := ts(2, 0)
	if !slices.Contains(s1.req.tranStack, transferInfo{Arbiter: 0, TargetTS: want}) {
		t.Fatalf("site 1's tran_stack %v lacks arbiter 0's transfer to %v", s1.req.tranStack, want)
	}

	var rel []releaseMsg
	for _, e := range s1.Exit().Send {
		switch m := payload(e).(type) {
		case replyMsg:
			if m.Arbiter == e.To {
				t.Errorf("site 1 forwarded %v to its arbiter's own site", m)
			}
		case releaseMsg:
			if e.To == 0 {
				rel = append(rel, m)
			}
		}
		route(mutex.Output{Send: []mutex.Envelope{e}})
	}
	if len(rel) != 1 || rel[0].Fwd != 0 || rel[0].FwdTS != want {
		t.Fatalf("releases to arbiter 0 = %+v, want one forwarding to %v", rel, want)
	}
	for ; len(to0) > 0; to0 = to0[1:] {
		if s0.InCS() {
			t.Fatalf("site 0 entered before the release; %d messages left", len(to0))
		}
		env := to0[0]
		s0.Deliver(env)
		if env.Body.Kind == mutex.BodyRelease {
			if !s0.InCS() || s0.arb.lock != want {
				t.Fatalf("after the release: in CS %v, arbiter 0's lock %v; want in CS and %v", s0.InCS(), s0.arb.lock, want)
			}
		}
	}
	if !s0.InCS() {
		t.Fatal("site 0 never entered")
	}
}
