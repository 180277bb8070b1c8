package modelcheck_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dqmx/internal/chaos"
	"dqmx/internal/core"
	"dqmx/internal/coterie"
	"dqmx/internal/membership"
	"dqmx/internal/modelcheck"
	"dqmx/internal/mutex"
)

// run executes one exhaustive configuration and fails the test on any
// violation, rendering the replayable counterexample. want is the size of
// the space: a refactor leaves it identical to the digit, and a protocol
// change that moves it says so by changing the number here.
func run(t *testing.T, name string, cfg modelcheck.Config, want int) modelcheck.Result {
	t.Helper()
	res, err := modelcheck.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Violation != nil {
		t.Fatalf("%s:\n%s", name, res.Violation)
	}
	if !res.Complete {
		t.Fatalf("%s: exploration truncated by MaxDepth", name)
	}
	if res.Terminals == 0 {
		t.Fatalf("%s: no terminal states reached", name)
	}
	if res.States != want {
		t.Errorf("%s: %d distinct states, want %d", name, res.States, want)
	}
	t.Logf("%s: %d distinct states, %d terminals, depth %d — all invariants hold",
		name, res.States, res.Terminals, res.Depth)
	return res
}

// checked builds a config over the given coterie with the full default
// invariant set plus the paper's message bound derived from the assignment.
func checked(t testing.TB, cons coterie.Construction, n int) modelcheck.Config {
	t.Helper()
	assign, err := cons.Assign(n)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := chaos.MessageBounds(assign)
	return modelcheck.Config{
		Algorithm: core.Algorithm{Construction: cons},
		N:         n,
		Bound:     &modelcheck.Bound{Lo: lo, Hi: hi},
	}
}

// viaArbiter is cfg over Maekawa's machine: the same sites with step C's
// forwarding off (core.ViaArbiter).
func viaArbiter(cfg modelcheck.Config) modelcheck.Config {
	cfg.Algorithm.Handoff = core.ViaArbiter
	return cfg
}

// TestExhaustiveSmall covers every delivery/request/exit interleaving of the
// fault-free N=3 configurations on both coterie shapes. The grid run
// exercises the transfer/inquire/yield machinery (site 0's quorum spans all
// three sites). The via-arbiter rows are the same two spaces without the
// transfer machinery: smaller, and held to the same invariants and bound.
func TestExhaustiveSmall(t *testing.T) {
	cfg := checked(t, coterie.Majority{}, 3)
	cfg.MaxStates = 500_000
	run(t, "majority-3", cfg, 2929)
	run(t, "majority-3 via-arbiter", viaArbiter(cfg), 752)

	cfg = checked(t, coterie.Grid{}, 3)
	cfg.MaxStates = 2_000_000
	run(t, "grid-3", cfg, 7826)
	run(t, "grid-3 via-arbiter", viaArbiter(cfg), 1995)
}

// TestExhaustiveCrashRecovery enumerates every schedule of the N=3 majority
// configuration with one crash choice at every step: the §6 recovery path —
// failure notifications interleaved with protocol traffic, quorum
// reconstruction, dead-holder regrants, and lost in-flight messages from the
// victim — must keep every invariant, including terminal deadlock freedom
// (a single crash leaves a live majority quorum). Maekawa's machine takes
// the same §6 path, so it is explored under the same crash choices.
func TestExhaustiveCrashRecovery(t *testing.T) {
	cfg := checked(t, coterie.Majority{}, 3)
	cfg.Crashes = 1
	cfg.MaxStates = 5_000_000
	run(t, "majority-3+crash", cfg, 72110)
	run(t, "majority-3+crash via-arbiter", viaArbiter(cfg), 26639)
}

// TestExhaustiveFour covers the fault-free N=4 majority configuration
// (quorums of size 3, so every request crosses overlapping arbiters). Two
// requesters fit the full invariant set including the message bound; three
// requesters drop the bound counters from the canonical state (they explode
// the space: ~200k states with them vs ~112k without at three requesters,
// and all four requesters exceed 20M states either way).
func TestExhaustiveFour(t *testing.T) {
	cfg := checked(t, coterie.Majority{}, 4)
	cfg.Requesters = []mutex.SiteID{0, 1}
	cfg.MaxStates = 500_000
	run(t, "majority-4(2 requesters)", cfg, 1336)

	cfg = checked(t, coterie.Majority{}, 4)
	cfg.Requesters = []mutex.SiteID{0, 1, 2}
	cfg.Bound = nil
	cfg.MaxStates = 1_000_000
	run(t, "majority-4(3 requesters)", cfg, 159399)
}

// TestExhaustiveFive covers N=5 fault-free on the tree coterie (the paper's
// K=log n shape) and the majority coterie, with reduced requester sets to
// keep the spaces enumerable; the idle sites still arbitrate every request.
func TestExhaustiveFive(t *testing.T) {
	cfg := checked(t, coterie.Tree{}, 5)
	cfg.Requesters = []mutex.SiteID{0, 2, 4}
	cfg.MaxStates = 500_000
	run(t, "tree-5(3 requesters)", cfg, 33967)

	cfg = checked(t, coterie.Majority{}, 5)
	cfg.Requesters = []mutex.SiteID{0, 3}
	cfg.MaxStates = 500_000
	run(t, "majority-5(2 requesters)", cfg, 540)
}

// TestExhaustiveTwoRounds lets sites run two CS executions issued at
// nondeterministic times — the space where the early-release and transfer
// races appear.
func TestExhaustiveTwoRounds(t *testing.T) {
	cfg := checked(t, coterie.Majority{}, 3)
	cfg.PerSite = 2
	cfg.Bound = nil // counters inflate the two-round space ~4x
	cfg.MaxStates = 1_000_000
	run(t, "majority-3×2", cfg, 264819)

	cfg = checked(t, coterie.Grid{}, 3)
	cfg.PerSite = 2
	cfg.Requesters = []mutex.SiteID{0, 2}
	cfg.MaxStates = 1_000_000
	run(t, "grid-3×2(2 requesters)", cfg, 8061)
}

// handoverConfig builds the exhaustive membership-switch configuration: a
// majority cluster growing from `from` to `to` sites via the joint-quorum
// handover, explored over the joint span with the given requesters.
func handoverConfig(t *testing.T, from, to int, requesters []mutex.SiteID) modelcheck.Config {
	t.Helper()
	old, err := membership.NewConfig(0, coterie.Majority{}, from)
	if err != nil {
		t.Fatal(err)
	}
	next, err := membership.NewConfig(1, coterie.Majority{}, to)
	if err != nil {
		t.Fatal(err)
	}
	h, err := membership.PlanHandover(old, next)
	if err != nil {
		t.Fatal(err)
	}
	return modelcheck.Config{
		Algorithm:  core.Algorithm{Construction: coterie.Majority{}},
		N:          h.JointN(),
		Requesters: requesters,
		Handover:   h,
	}
}

// TestExhaustiveHandover proves the reconfiguration safe by enumeration: a
// majority-3 cluster grows to majority-4 while sites contend, and every
// interleaving of protocol traffic with the per-site joint and final
// membership applies is explored. At most one site holds the CS in every
// reachable state — entries granted under the old coterie, the joint phase,
// and the new coterie all exclude each other — timestamp order holds for
// unwithdrawn settled waves, and every terminal state has the switch
// complete with all requests served (the settle barrier never wedges).
//
// The two-requester spaces are the exhaustive budget: adding a third
// requester or a crash choice multiplies the handover interleavings past
// any practical state budget (tens of millions of states without
// converging). Crash-during-handover is covered by the randomized chaos
// archetypes instead (TestChaosConformanceReconfigure* in
// internal/chaos/sweep), which drive the same JointAvoiding rebuild path
// under load with seeded schedules.
func TestExhaustiveHandover(t *testing.T) {
	// The joiner plus one original member contend across the switch.
	cfg := handoverConfig(t, 3, 4, []mutex.SiteID{0, 3})
	cfg.MaxStates = 2_000_000
	run(t, "handover-3to4(2 requesters)", cfg, 29646)
}

// TestExhaustiveHandoverShrink covers the other direction: majority-4 down
// to majority-3, where the final swap is withdraw-only (the new quorum is a
// subset of the joint req_set) and the departing site keeps its joint
// req_set through the drain — the withdrawn-wave accounting must keep the
// order invariant sound.
func TestExhaustiveHandoverShrink(t *testing.T) {
	// The departing site and one survivor contend across the switch.
	cfg := handoverConfig(t, 4, 3, []mutex.SiteID{0, 3})
	cfg.MaxStates = 2_000_000
	run(t, "handover-4to3(2 requesters)", cfg, 47368)
}

// TestCounterexampleReplay verifies the counterexample machinery end to end
// with a deliberately broken invariant ("no site ever enters the CS"): the
// violation must carry the shortest trace that enters a CS — request, deliver
// the request, deliver the reply — and Replay must reproduce exactly the same
// violation from the recorded choices.
func TestCounterexampleReplay(t *testing.T) {
	broken := modelcheck.NewInvariant("no-entry",
		func(pre *modelcheck.State, act modelcheck.Action, post *modelcheck.State) error {
			if s := post.Entered(); s != -1 {
				return fmt.Errorf("site %d entered the CS", s)
			}
			return nil
		}, nil)
	cfg := modelcheck.Config{
		Algorithm:  core.Algorithm{Construction: coterie.Majority{}},
		N:          3,
		Invariants: []modelcheck.Invariant{broken},
		MaxStates:  100_000,
	}
	res, err := modelcheck.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("broken invariant produced no violation")
	}
	v := res.Violation
	if v.Invariant != "no-entry" {
		t.Fatalf("violated invariant = %q, want no-entry", v.Invariant)
	}
	// BFS yields a minimal counterexample: issuing one request and delivering
	// the request and reply along site 0's two-member quorum is the shortest
	// possible path into a CS.
	if len(v.Trace) != 3 {
		t.Fatalf("counterexample not minimal: %d choices\n%s", len(v.Trace), v)
	}
	if v.Dump == "" {
		t.Fatal("violation carries no state dump")
	}

	replayed, log, err := modelcheck.Replay(cfg, v.Trace)
	if err != nil {
		t.Fatalf("replay: %v (log: %v)", err, log)
	}
	if replayed == nil {
		t.Fatalf("replay of the counterexample ran clean; trace:\n%s", v)
	}
	if replayed.Invariant != v.Invariant || replayed.Msg != v.Msg {
		t.Fatalf("replay reproduced %q/%q, want %q/%q", replayed.Invariant, replayed.Msg, v.Invariant, v.Msg)
	}
	if len(log) != len(v.Trace) {
		t.Fatalf("replay log has %d steps for a %d-choice trace", len(log), len(v.Trace))
	}
}

// TestReplayRejectsDisabledAction: Replay refuses a step the explorer would
// not offer in the state it meets. Site 0 applying the final req_set right
// after its own joint apply skips the settle barrier (sites 1–3 are not
// joint yet), so the trace is not a run of the configuration.
func TestReplayRejectsDisabledAction(t *testing.T) {
	cfg := handoverConfig(t, 3, 4, []mutex.SiteID{0})
	trace := []modelcheck.Action{
		{Kind: modelcheck.ActApplyJoint, Site: 0},
		{Kind: modelcheck.ActApplyFinal, Site: 0},
	}
	v, log, err := modelcheck.Replay(cfg, trace)
	if err == nil {
		t.Fatalf("replay of a barrier-skipping trace succeeded (violation %v, log %q)", v, log)
	}
	if !strings.Contains(err.Error(), "step 2") {
		t.Errorf("replay error = %v, want it to name step 2", err)
	}
	if len(log) != 1 {
		t.Errorf("replay logged %d steps, want 1 (the enabled joint apply)", len(log))
	}
}

// TestStateBudget pins the budget contract: a cap below the space size must
// abort with ErrStateBudget rather than run unbounded.
func TestStateBudget(t *testing.T) {
	cfg := modelcheck.Config{
		Algorithm: core.Algorithm{Construction: coterie.Majority{}},
		N:         3,
		MaxStates: 10,
	}
	_, err := modelcheck.Run(cfg)
	if !errors.Is(err, modelcheck.ErrStateBudget) {
		t.Fatalf("got %v, want ErrStateBudget", err)
	}
}

// TestDFSMatchesBFS: both search orders must visit the same state space.
func TestDFSMatchesBFS(t *testing.T) {
	cfg := checked(t, coterie.Majority{}, 3)
	cfg.MaxStates = 500_000
	bfs := run(t, "bfs", cfg, 2929)
	cfg.DFS = true
	dfs := run(t, "dfs", cfg, 2929)
	if bfs.States != dfs.States || bfs.Terminals != dfs.Terminals {
		t.Fatalf("bfs explored %d/%d, dfs %d/%d", bfs.States, bfs.Terminals, dfs.States, dfs.Terminals)
	}
}
