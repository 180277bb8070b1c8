package core_test

import (
	"fmt"
	"testing"

	"dqmx/internal/core"
	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
	"dqmx/internal/sim"
	"dqmx/internal/workload"
)

const meanDelay = sim.Time(1000) // the paper's T

// runSaturated runs a heavy-load (saturated closed-loop) simulation and
// fails the test on any safety or liveness violation.
func runSaturated(t *testing.T, alg mutex.Algorithm, n, perSite int, seed int64, delay sim.Delay) sim.Result {
	t.Helper()
	if delay == nil {
		delay = sim.ConstantDelay{D: meanDelay}
	}
	c, err := sim.NewCluster(sim.Config{N: n, Algorithm: alg, Delay: delay, Seed: seed, CSTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	workload.Saturated(c, perSite)
	c.Run(0)
	if err := c.Err(); err != nil {
		t.Fatalf("n=%d seed=%d: %v", n, seed, err)
	}
	if got, want := c.Completed(), n*perSite; got != want {
		t.Fatalf("n=%d seed=%d: completed %d of %d CS executions", n, seed, got, want)
	}
	return c.Summarize()
}

func TestSingleSite(t *testing.T) {
	res := runSaturated(t, core.Algorithm{}, 1, 5, 1, nil)
	if res.TotalMessages != 0 {
		t.Errorf("single site exchanged %d messages, want 0", res.TotalMessages)
	}
}

func TestTwoSitesContend(t *testing.T) {
	runSaturated(t, core.Algorithm{}, 2, 10, 1, nil)
}

func TestHeavyLoadSafetyAndLiveness(t *testing.T) {
	for _, n := range []int{4, 9, 16, 25} {
		for seed := int64(1); seed <= 5; seed++ {
			runSaturated(t, core.Algorithm{}, n, 5, seed, nil)
		}
	}
}

func TestHeavyLoadRandomDelays(t *testing.T) {
	for _, n := range []int{5, 9, 13} {
		for seed := int64(1); seed <= 10; seed++ {
			runSaturated(t, core.Algorithm{}, n, 4, seed, sim.ExponentialDelay{MeanD: meanDelay})
			runSaturated(t, core.Algorithm{}, n, 4, seed, sim.UniformDelay{Lo: 500, Hi: 1500})
		}
	}
}

// TestLightLoadMessageCount reproduces §5.1: without contention a CS
// execution costs exactly (K−1) request + (K−1) reply + (K−1) release
// messages.
func TestLightLoadMessageCount(t *testing.T) {
	n := 25
	c, err := sim.NewCluster(sim.Config{
		N: n, Algorithm: core.Algorithm{}, Delay: sim.ConstantDelay{D: meanDelay}, CSTime: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 50
	workload.Sequential(c, total, 100*meanDelay) // far apart: zero contention
	c.Run(0)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	assign, err := (coterie.Grid{}).Assign(n)
	if err != nil {
		t.Fatal(err)
	}
	k := assign.MaxQuorumSize()
	want := uint64(total * 3 * (k - 1))
	if got := c.Net.Total(); got != want {
		t.Errorf("light-load messages = %d, want exactly %d (= %d × 3(K−1))", got, want, total)
	}
	byKind := c.Net.CountByKind()
	per := uint64(total * (k - 1))
	for _, kind := range []string{mutex.KindRequest, mutex.KindReply, mutex.KindRelease} {
		if byKind[kind] != per {
			t.Errorf("light-load %s count = %d, want %d", kind, byKind[kind], per)
		}
	}
	for _, kind := range []string{mutex.KindInquire, mutex.KindFail, mutex.KindYield, mutex.KindTransfer} {
		if byKind[kind] != 0 {
			t.Errorf("light-load produced %d %s messages, want 0", byKind[kind], kind)
		}
	}
}

// TestLightLoadResponseTime reproduces §5.1's response time of 2T + E.
func TestLightLoadResponseTime(t *testing.T) {
	n := 25
	c, err := sim.NewCluster(sim.Config{
		N: n, Algorithm: core.Algorithm{}, Delay: sim.ConstantDelay{D: meanDelay}, CSTime: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	workload.Sequential(c, 20, 100*meanDelay)
	c.Run(0)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	for _, r := range c.Records() {
		if got, want := r.Entered+c.CSTime()-r.Requested, 2*meanDelay+200; got != want {
			t.Fatalf("response time = %d, want %d (2T+E)", got, want)
		}
	}
}

// TestHeavyLoadMessageBound reproduces §5.2: under heavy load the protocol
// needs between 3(K−1) and 6(K−1) messages per CS execution.
func TestHeavyLoadMessageBound(t *testing.T) {
	for _, n := range []int{9, 16, 25} {
		res := runSaturated(t, core.Algorithm{}, n, 10, 42, nil)
		assign, err := (coterie.Grid{}).Assign(n)
		if err != nil {
			t.Fatal(err)
		}
		k := float64(assign.MaxQuorumSize())
		lo, hi := 3*(k-1), 6*(k-1)
		if res.MessagesPerCS < lo-0.5 || res.MessagesPerCS > hi+0.5 {
			t.Errorf("n=%d: %.2f messages/CS, want within [%.0f, %.0f]", n, res.MessagesPerCS, lo, hi)
		}
	}
}

// TestHeavyLoadSyncDelayIsT is the headline result: the synchronization
// delay under heavy load is ≈ T (one message delay), not Maekawa's 2T,
// because the exiting site forwards permissions directly.
func TestHeavyLoadSyncDelayIsT(t *testing.T) {
	for _, n := range []int{9, 25} {
		res := runSaturated(t, core.Algorithm{}, n, 10, 7, nil)
		if res.SyncDelaySamples == 0 {
			t.Fatalf("n=%d: no handover samples", n)
		}
		if res.SyncDelay < 0.9 || res.SyncDelay > 1.5 {
			t.Errorf("n=%d: sync delay = %.3f T, want ≈ 1 T (got %d samples)",
				n, res.SyncDelay, res.SyncDelaySamples)
		}
	}
}

// TestQuorumIndependence runs the protocol unmodified over every coterie
// construction (§3: "the algorithm does not depend on any particular quorum
// construction method").
func TestQuorumIndependence(t *testing.T) {
	for _, cons := range coterie.Constructions() {
		cons := cons
		t.Run(cons.Name(), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				runSaturated(t, core.Algorithm{Construction: cons}, 13, 4, seed, nil)
				runSaturated(t, core.Algorithm{Construction: cons}, 13, 4, seed,
					sim.ExponentialDelay{MeanD: meanDelay})
			}
		})
	}
}

// TestStressManySeeds is the broad randomized safety/liveness sweep.
func TestStressManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	for seed := int64(1); seed <= 40; seed++ {
		n := 3 + int(seed%12)
		runSaturated(t, core.Algorithm{}, n, 3, seed, sim.ExponentialDelay{MeanD: meanDelay})
	}
}

// TestPoissonSweep crosses from light to heavy load and checks safety,
// liveness and the §5 message bounds at every operating point.
func TestPoissonSweep(t *testing.T) {
	n := 16
	assign, err := (coterie.Grid{}).Assign(n)
	if err != nil {
		t.Fatal(err)
	}
	k := float64(assign.MaxQuorumSize())
	for _, think := range []sim.Time{100, 1000, 10000, 100000} {
		c, err := sim.NewCluster(sim.Config{
			N: n, Algorithm: core.Algorithm{}, Delay: sim.ConstantDelay{D: meanDelay}, Seed: 5, CSTime: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		workload.ClosedPoisson(c, think, 5, 99)
		c.Run(0)
		if err := c.Err(); err != nil {
			t.Fatalf("think=%d: %v", think, err)
		}
		res := c.Summarize()
		if res.MessagesPerCS < 3*(k-1)-0.5 || res.MessagesPerCS > 6*(k-1)+0.5 {
			t.Errorf("think=%d: %.2f messages/CS outside [3(K−1), 6(K−1)]", think, res.MessagesPerCS)
		}
	}
}

// --- Maekawa: the same machine with the hand-off via the arbiter ------------

var viaArbiter = core.Algorithm{Handoff: core.ViaArbiter}

func TestViaArbiterSafetyAndLiveness(t *testing.T) {
	for _, n := range []int{2, 4, 9, 16, 25} {
		for seed := int64(1); seed <= 5; seed++ {
			runSaturated(t, viaArbiter, n, 4, seed, nil)
			runSaturated(t, viaArbiter, n, 4, seed, sim.ExponentialDelay{MeanD: meanDelay})
		}
	}
}

// TestViaArbiterLightLoadMessages: Maekawa needs 3(K−1) messages per
// uncontended CS, like the paper's protocol.
func TestViaArbiterLightLoadMessages(t *testing.T) {
	n := 25
	c, err := sim.NewCluster(sim.Config{N: n, Algorithm: viaArbiter, Delay: sim.ConstantDelay{D: meanDelay}, CSTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	total := 30
	workload.Sequential(c, total, 100*meanDelay)
	c.Run(0)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	assign, _ := (coterie.Grid{}).Assign(n)
	want := uint64(total * 3 * (assign.MaxQuorumSize() - 1))
	if got := c.Net.Total(); got != want {
		t.Errorf("light-load messages = %d, want %d", got, want)
	}
}

// TestViaArbiterHeavyLoadSyncDelayIs2T: the arbiter round trip (release then
// reply) costs two message delays per handover.
func TestViaArbiterHeavyLoadSyncDelayIs2T(t *testing.T) {
	res := runSaturated(t, viaArbiter, 25, 10, 7, nil)
	if res.SyncDelaySamples == 0 {
		t.Fatal("no handover samples")
	}
	if res.SyncDelay < 1.8 || res.SyncDelay > 2.4 {
		t.Errorf("sync delay = %.3f T, want ≈ 2 T", res.SyncDelay)
	}
}

// TestViaArbiterHeavyLoadMessageBound: Maekawa stays within roughly 5(K−1)
// under heavy load.
func TestViaArbiterHeavyLoadMessageBound(t *testing.T) {
	n := 25
	res := runSaturated(t, viaArbiter, n, 10, 42, nil)
	assign, _ := (coterie.Grid{}).Assign(n)
	k := float64(assign.MaxQuorumSize())
	if res.MessagesPerCS < 3*(k-1)-0.5 || res.MessagesPerCS > 6*(k-1)+0.5 {
		t.Errorf("%.2f messages/CS outside [3(K−1), 6(K−1)]", res.MessagesPerCS)
	}
}

// TestViaArbiterNoTransferMessages: classic Maekawa never uses the transfer
// kind.
func TestViaArbiterNoTransferMessages(t *testing.T) {
	res := runSaturated(t, viaArbiter, 9, 5, 1, nil)
	if n := res.ByKind[mutex.KindTransfer]; n != 0 {
		t.Errorf("maekawa sent %d transfer messages", n)
	}
}

// TestViaArbiterOtherCoteries: Maekawa's protocol also works over tree and
// majority coteries.
func TestViaArbiterOtherCoteries(t *testing.T) {
	for _, cons := range []coterie.Construction{coterie.Tree{}, coterie.Majority{}} {
		alg := core.Algorithm{Construction: cons, Handoff: core.ViaArbiter}
		runSaturated(t, alg, 15, 4, 3, sim.ExponentialDelay{MeanD: meanDelay})
	}
}

func ExampleAlgorithm_name() {
	fmt.Println(core.Algorithm{}.Name())
	fmt.Println(core.Algorithm{Construction: coterie.Tree{}}.Name())
	fmt.Println(core.Algorithm{Handoff: core.ViaArbiter}.Name())
	// Output:
	// delay-optimal(maekawa-grid)
	// delay-optimal(ae-tree)
	// maekawa(maekawa-grid)
}
