package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"dqmx/internal/core"
	"dqmx/internal/harness"
	"dqmx/internal/sim"
	"dqmx/internal/workload"
)

// TestCaseStatsCoverHeavyLoad: under saturation, arrivals at locked
// arbiters must be classified, and every classified case the paper analyzes
// (1, 2, 3) must actually occur; case totals must equal the number of
// locked-arrival events.
func TestCaseStatsCoverHeavyLoad(t *testing.T) {
	c, err := sim.NewCluster(sim.Config{
		N: 25, Algorithm: core.Algorithm{}, Delay: sim.ConstantDelay{D: 1000}, Seed: 3, CSTime: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	workload.Saturated(c, 10)
	c.Run(0)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	var total core.CaseStats
	for _, s := range c.Sites {
		cs := s.(*core.Site).Cases()
		for i := range cs.Case {
			total.Case[i] += cs.Case[i]
		}
	}
	if total.Total() == 0 {
		t.Fatal("no arrivals classified under saturation")
	}
	for _, want := range []int{1, 2, 3} {
		if total.Case[want] == 0 {
			t.Errorf("case %d never occurred in a saturated run", want)
		}
	}
	if total.Case[0] != 0 {
		t.Errorf("case 0 used: %d", total.Case[0])
	}
}

// TestPreemptionPathsExercised: under randomized delays the full protocol
// vocabulary — inquire, yield, transfer, fail — must actually occur, so the
// simulations genuinely cover the paper's §5.2 cases rather than only the
// in-order fast path.
func TestPreemptionPathsExercised(t *testing.T) {
	totals := map[string]uint64{}
	for seed := int64(1); seed <= 10; seed++ {
		c, err := sim.NewCluster(sim.Config{
			N: 13, Algorithm: core.Algorithm{}, Delay: sim.ExponentialDelay{MeanD: 1000},
			Seed: seed, CSTime: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		workload.Saturated(c, 5)
		c.Run(0)
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		for k, v := range c.Net.CountByKind() {
			totals[k] += v
		}
	}
	for _, kind := range []string{"request", "reply", "release", "transfer", "fail", "yield"} {
		if totals[kind] == 0 {
			t.Errorf("message kind %q never occurred across 10 randomized heavy-load runs", kind)
		}
	}
	// The paper: "whenever a site sends an inquire in response to a high
	// priority request, the inquire is always piggybacked with a transfer" —
	// so standalone inquire envelopes must NOT occur in the default
	// configuration.
	if totals["inquire"] != 0 {
		t.Errorf("%d standalone inquire messages; they should all be piggybacked", totals["inquire"])
	}
}

// TestLightLoadHasNoCases: uncontended runs never hit a locked arbiter.
func TestLightLoadHasNoCases(t *testing.T) {
	c, err := sim.NewCluster(sim.Config{
		N: 9, Algorithm: core.Algorithm{}, Delay: sim.ConstantDelay{D: 1000}, Seed: 1, CSTime: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	workload.Sequential(c, 20, 100000)
	c.Run(0)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	for i, s := range c.Sites {
		if got := s.(*core.Site).Cases().Total(); got != 0 {
			t.Errorf("site %d classified %d arrivals at light load", i, got)
		}
	}
}

// runHandoff saturates 25 sites for 8 CS each (seed 5) over the given
// hand-off case and delay model, failing on any safety or liveness error.
func runHandoff(t *testing.T, h core.Handoff, delay sim.Delay) sim.Result {
	t.Helper()
	c, err := sim.NewCluster(sim.Config{
		N: 25, Algorithm: core.Algorithm{Handoff: h}, Delay: delay, Seed: 5, CSTime: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	workload.Saturated(c, 8)
	c.Run(0)
	if err := c.Err(); err != nil {
		t.Fatalf("handoff=%d: %v", h, err)
	}
	return c.Summarize()
}

// TestViaArbiter: with step C's forwarding off — Maekawa's algorithm — the
// machine stays safe and live, sends no transfer messages at all, and pays
// the release → reply round trip on every handover, so its synchronization
// delay must be clearly worse than the delay-optimal configuration's. This
// is the simulated sanity check behind the live runtime's E14
// (TestLiveSyncDelayInT in the root package).
func TestViaArbiter(t *testing.T) {
	delay := sim.ConstantDelay{D: 1000}
	with := runHandoff(t, core.Transfer, delay)
	without := runHandoff(t, core.ViaArbiter, delay)
	if n := without.ByKind["transfer"]; n != 0 {
		t.Errorf("%d transfer messages sent with the hand-off via the arbiter", n)
	}
	if without.SyncDelay < 1.5*with.SyncDelay {
		t.Errorf("via-arbiter sync delay (%v T) should be ~2x the transfer path's (%v T)",
			without.SyncDelay, with.SyncDelay)
	}
	pinViaArbiter(t)
}

// pinViaArbiter holds Maekawa's 2T machine to its constants on three
// deterministic runs — per-kind counts, messages per CS, delay in T. The
// separate internal/maekawa implementation produced the same figures to the
// digit before it was deleted in favour of this hand-off case.
func pinViaArbiter(t *testing.T) {
	t.Helper()
	for _, pin := range []struct {
		spec   harness.Spec
		byKind map[string]uint64
		msgs   string // MessagesPerCS to three decimals
		delay  string // SyncDelay in T to three decimals; "" = not pinned
	}{
		{
			spec:   harness.Spec{N: 25, Load: harness.Heavy, PerSite: 10, Seed: 1},
			byKind: map[string]uint64{"request": 2000, "reply": 2000, "release": 2000, "fail": 1976},
			msgs:   "31.904", delay: "2.000",
		},
		{
			spec: harness.Spec{N: 9, Load: harness.Heavy, PerSite: 40, Seed: 1,
				Delay: sim.ExponentialDelay{MeanD: 1000}, CSTime: 50},
			byKind: map[string]uint64{"request": 1440, "reply": 1441, "release": 1440, "fail": 1431, "inquire": 1, "yield": 1},
			msgs:   "15.983",
		},
		{
			spec:   harness.Spec{N: 25, Load: harness.Light, PerSite: 50, Seed: 1},
			byKind: map[string]uint64{"request": 400, "reply": 400, "release": 400},
			msgs:   "24.000",
		},
	} {
		pin.spec.Algorithm = viaArbiter
		res, err := harness.Run(pin.spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.ByKind, pin.byKind) {
			t.Errorf("%+v: by kind %v, want %v", pin.spec, res.ByKind, pin.byKind)
		}
		if got := fmt.Sprintf("%.3f", res.MessagesPerCS); got != pin.msgs {
			t.Errorf("%+v: %s msgs/CS, want %s", pin.spec, got, pin.msgs)
		}
		if got := fmt.Sprintf("%.3f", res.SyncDelay); pin.delay != "" && got != pin.delay {
			t.Errorf("%+v: sync delay %s T, want %s", pin.spec, got, pin.delay)
		}
	}
}
