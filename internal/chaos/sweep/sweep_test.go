package sweep

// The conformance sweep: hundreds of seeded chaos schedules against the
// live protocol stack, each replayable in isolation with
//
//	DQMX_CHAOS_SEED=<seed> go test -race -run TestChaosConformance ./internal/chaos/sweep
//
// Every schedule derives its fault plan from its seed (drop, reorder,
// delay, partition, crash/recovery archetypes), drives two named locks
// across every site, and fails on any checker violation — always printing
// the seed and plan so the exact schedule reproduces.

import (
	"fmt"
	"testing"
	"time"

	"dqmx/internal/chaos"
	"dqmx/internal/harness"
)

// conformanceCase is one (cluster shape, coterie) sweep target.
type conformanceCase struct {
	name   string
	quorum string
	n      int
	base   int64 // seed base; schedule i uses base+i
}

func runConformance(t *testing.T, tc conformanceCase, schedules int) {
	cons, err := harness.NewConstruction(tc.quorum)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := harness.NewAlgorithm("delay-optimal", cons, false)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := cons.Assign(tc.n)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]int64, 0, schedules)
	if seed, ok := chaos.SeedOverride(); ok {
		seeds = append(seeds, seed)
	} else {
		for i := 0; i < schedules; i++ {
			seeds = append(seeds, tc.base+int64(i))
		}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			plan := RandomPlan(seed, tc.n)
			// The reliable-delivery sublayer heals drops, duplicates, and
			// reordering, so every schedule without crashes or partitions
			// must complete all rounds: drop-only plans get the watchdog
			// too. Crash and partition schedules assert safety only.
			enforceLiveness := plan.LivenessExpected()
			cfg := Config{
				Algorithm:      alg,
				N:              tc.n,
				Plan:           plan,
				Resources:      []string{"alpha", "beta"},
				PerSite:        2,
				AcquireTimeout: 400 * time.Millisecond,
				Hold:           200 * time.Microsecond,
				Assignment:     assign,
			}
			if enforceLiveness {
				cfg.AcquireTimeout = 5 * time.Second
				cfg.Patience = 3 * time.Second
			}
			var (
				res Result
				err error
			)
			inBubble(func() { res, err = Run(cfg) })
			if err != nil {
				t.Fatalf("seed %d: %v\nplan: %s\n%s", seed, err, plan, replayHint(seed))
			}
			for _, v := range res.Violations {
				t.Errorf("seed %d: %s\nplan: %s\n%s", seed, v, plan, replayHint(seed))
			}
			if enforceLiveness {
				for _, s := range res.Stalls {
					t.Errorf("seed %d: liveness stall: %s\nplan: %s\n%s", seed, s, plan, replayHint(seed))
				}
				if res.Missed > 0 {
					t.Errorf("seed %d: %d/%d rounds missed on a liveness-expected schedule\nplan: %s\n%s",
						seed, res.Missed, res.Missed+res.Acquired, plan, replayHint(seed))
				}
			}
		})
	}
}

func replayHint(seed int64) string {
	return fmt.Sprintf("replay: %s=%d go test -race -run TestChaosConformance ./internal/chaos/sweep",
		chaos.SeedEnv, seed)
}

// conformanceSchedules picks the per-target sweep size: ≥100 each (≥200
// total) normally, trimmed under -short for quick CI loops. The soak build
// tag (soak_test.go) multiplies this further.
func conformanceSchedules(t *testing.T) int {
	if testing.Short() {
		return 25
	}
	return 100 * soakFactor
}

func TestChaosConformanceGrid(t *testing.T) {
	runConformance(t, conformanceCase{name: "grid9", quorum: "maekawa-grid", n: 9, base: 1000}, conformanceSchedules(t))
}

func TestChaosConformanceTree(t *testing.T) {
	runConformance(t, conformanceCase{name: "tree7", quorum: "ae-tree", n: 7, base: 5000}, conformanceSchedules(t))
}

// TestQuietBoundsAcrossQuorums pins invariant 3 directly: a fault-free
// schedule over each swept coterie stays inside 3(K-1)..6(K-1) messages per
// CS (the checker records a "bound" violation otherwise).
func TestQuietBoundsAcrossQuorums(t *testing.T) {
	for _, tc := range []conformanceCase{
		{name: "grid9", quorum: "maekawa-grid", n: 9},
		{name: "tree7", quorum: "ae-tree", n: 7},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cons, err := harness.NewConstruction(tc.quorum)
			if err != nil {
				t.Fatal(err)
			}
			alg, err := harness.NewAlgorithm("delay-optimal", cons, false)
			if err != nil {
				t.Fatal(err)
			}
			assign, err := cons.Assign(tc.n)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(Config{
				Algorithm:      alg,
				N:              tc.n,
				Plan:           chaos.Plan{Seed: 7},
				Resources:      []string{"alpha", "beta"},
				PerSite:        3,
				AcquireTimeout: 5 * time.Second,
				Hold:           100 * time.Microsecond,
				Assignment:     assign,
				Patience:       3 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Errorf("%s", v)
			}
			if res.Missed > 0 {
				t.Errorf("%d rounds missed on a quiet cluster", res.Missed)
			}
			// A quiet wire acks well inside the retransmission backoff: the
			// reliability layer must be pure bookkeeping here.
			if res.Retransmits > 0 {
				t.Errorf("%d retransmissions on a fault-free run", res.Retransmits)
			}
			if res.DupSuppressed > 0 {
				t.Errorf("%d duplicates suppressed on a fault-free run", res.DupSuppressed)
			}
		})
	}
}

// TestLossyLiveness pins the tentpole claim directly: drop-only schedules
// (2–12% loss, the sweep's lossy archetype range) must complete every
// acquire without leaning on the timeout — the reliable-delivery sublayer
// retransmits until the wave lands. Timeouts are NOT honored as success:
// any missed round fails.
func TestLossyLiveness(t *testing.T) {
	for _, tc := range []conformanceCase{
		{name: "grid9", quorum: "maekawa-grid", n: 9, base: 40000},
		{name: "tree7", quorum: "ae-tree", n: 7, base: 41000},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cons, err := harness.NewConstruction(tc.quorum)
			if err != nil {
				t.Fatal(err)
			}
			alg, err := harness.NewAlgorithm("delay-optimal", cons, false)
			if err != nil {
				t.Fatal(err)
			}
			schedules := lossySchedules
			if testing.Short() {
				schedules = 4
			}
			for i := 0; i < schedules; i++ {
				seed := tc.base + int64(i)
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					t.Parallel()
					plan := chaos.Plan{
						Seed:     seed,
						Drop:     lossyDropFloor + (lossyDropCeil-lossyDropFloor)*float64(i%8)/7,
						Reorder:  0.1,
						MaxDelay: time.Millisecond,
					}
					res, err := Run(Config{
						Algorithm:      alg,
						N:              tc.n,
						Plan:           plan,
						Resources:      []string{"alpha", "beta"},
						PerSite:        2,
						AcquireTimeout: 20 * time.Second,
						Hold:           100 * time.Microsecond,
						Patience:       8 * time.Second,
					})
					if err != nil {
						t.Fatalf("seed %d: %v\nplan: %s", seed, err, plan)
					}
					for _, v := range res.Violations {
						t.Errorf("seed %d: %s\nplan: %s", seed, v, plan)
					}
					for _, s := range res.Stalls {
						t.Errorf("seed %d: liveness stall: %s\nplan: %s", seed, s, plan)
					}
					if res.Missed > 0 {
						t.Errorf("seed %d: %d/%d rounds missed under %.0f%% drop — retransmission failed to heal the loss\nplan: %s",
							seed, res.Missed, res.Missed+res.Acquired, 100*plan.Drop, plan)
					}
				})
			}
		})
	}
}

// TestCrashBeforeHandles: a plan may crash a site before the harness has
// taken that site's lock handles (the Grid/seed=1047 race, with the crash at
// 4 ms of wall clock). The site's rounds are missed, not a harness error.
// Crashing the last site at 0 ms, with many resources to open before it,
// makes the race all but certain.
func TestCrashBeforeHandles(t *testing.T) {
	const n, perSite = 9, 2
	cons, err := harness.NewConstruction("maekawa-grid")
	if err != nil {
		t.Fatal(err)
	}
	alg, err := harness.NewAlgorithm("delay-optimal", cons, false)
	if err != nil {
		t.Fatal(err)
	}
	resources := []string{"r0", "r1", "r2", "r3", "r4", "r5"}
	plan := chaos.Plan{Seed: 1, Crashes: []chaos.Crash{{Site: n - 1, DetectAfter: time.Millisecond}}}
	res, err := Run(Config{
		Algorithm:      alg,
		N:              n,
		Plan:           plan,
		Resources:      resources,
		PerSite:        perSite,
		AcquireTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("%v\nplan: %s", err, plan)
	}
	for _, v := range res.Violations {
		t.Errorf("%s\nplan: %s", v, plan)
	}
	t.Logf("%d rounds acquired, %d missed", res.Acquired, res.Missed)
}

// TestRandomPlanDeterministic guards the replay contract: the same seed
// must derive the same plan.
func TestRandomPlanDeterministic(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		a, b := RandomPlan(seed, 9), RandomPlan(seed, 9)
		if a.String() != b.String() {
			t.Fatalf("seed %d derived different plans:\n%s\n%s", seed, a, b)
		}
	}
}
