package lamport_test

import (
	"testing"

	"dqmx/internal/lamport"
	"dqmx/internal/sim"
	"dqmx/internal/workload"
)

const meanDelay = sim.Time(1000)

func runSaturated(t *testing.T, n, perSite int, seed int64, delay sim.Delay) sim.Result {
	t.Helper()
	if delay == nil {
		delay = sim.ConstantDelay{D: meanDelay}
	}
	c, err := sim.NewCluster(sim.Config{N: n, Algorithm: lamport.Algorithm{}, Delay: delay, Seed: seed, CSTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	workload.Saturated(c, perSite)
	c.Run(0)
	if err := c.Err(); err != nil {
		t.Fatalf("n=%d seed=%d: %v", n, seed, err)
	}
	if got, want := c.Completed(), n*perSite; got != want {
		t.Fatalf("completed %d of %d", got, want)
	}
	return c.Summarize()
}

func TestSafetyAndLiveness(t *testing.T) {
	for _, n := range []int{2, 3, 5, 9} {
		for seed := int64(1); seed <= 5; seed++ {
			runSaturated(t, n, 4, seed, nil)
			runSaturated(t, n, 4, seed, sim.ExponentialDelay{MeanD: meanDelay})
		}
	}
}

// TestMessagesAre3N1: Lamport costs exactly 3(N−1) messages per CS at any
// load (request + reply + release to every other site).
func TestMessagesAre3N1(t *testing.T) {
	n := 9
	res := runSaturated(t, n, 5, 2, nil)
	want := float64(3 * (n - 1))
	if res.MessagesPerCS != want {
		t.Errorf("messages/CS = %v, want exactly %v", res.MessagesPerCS, want)
	}
}

// TestSyncDelayIsT: the release broadcast reaches the next site directly.
func TestSyncDelayIsT(t *testing.T) {
	res := runSaturated(t, 9, 10, 7, nil)
	if res.SyncDelaySamples == 0 {
		t.Fatal("no handover samples")
	}
	if res.SyncDelay < 0.9 || res.SyncDelay > 1.2 {
		t.Errorf("sync delay = %.3f T, want ≈ 1 T", res.SyncDelay)
	}
}

// TestLightLoadResponse: 2T + E for an uncontended request.
func TestLightLoadResponse(t *testing.T) {
	c, err := sim.NewCluster(sim.Config{N: 5, Algorithm: lamport.Algorithm{}, Delay: sim.ConstantDelay{D: meanDelay}, CSTime: 100})
	if err != nil {
		t.Fatal(err)
	}
	workload.Sequential(c, 10, 100*meanDelay)
	c.Run(0)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	for _, r := range c.Records() {
		if got, want := r.Entered+c.CSTime()-r.Requested, 2*meanDelay+100; got != want {
			t.Fatalf("response = %d, want %d", got, want)
		}
	}
}
