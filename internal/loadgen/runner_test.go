package loadgen

// Live-cluster smoke tests: these run real protocol deployments for a
// couple of seconds each and back the Makefile's bench-smoke target. The
// A/B thresholds are deliberately loose — the deterministic per-hop delay
// puts the transfer arm at ~d and the fallback arm at ~2d, so a ratio
// floor of 1.3 leaves a 50%+ noise margin on an expected 2.0.

import (
	"testing"
	"time"
)

// abConfig is a saturated single-resource closed loop: every handover has
// a waiting next holder, which is exactly the regime where transfer (T)
// versus release-fallback (2T) is visible.
func abConfig(driver string, n int, quorum string, hop time.Duration) Config {
	return Config{
		Driver:   driver,
		N:        n,
		Quorum:   quorum,
		Arrival:  ArrivalClosed,
		Hold:     500 * time.Microsecond,
		HopDelay: hop,
		Warmup:   250 * time.Millisecond,
		Measure:  900 * time.Millisecond,
		Seed:     42,
	}
}

func checkAB(t *testing.T, ab *ABResult) {
	t.Helper()
	for name, rep := range map[string]*Report{"transfer": ab.Transfer, "fallback": ab.Fallback} {
		if rep.Ops == 0 || rep.Throughput <= 0 {
			t.Fatalf("%s arm did no work: %+v", name, rep)
		}
		if rep.Handoff.Count < 5 {
			t.Fatalf("%s arm saw only %d handovers; the window is too small to compare",
				name, rep.Handoff.Count)
		}
		if rep.Acquire.Count == 0 || rep.Acquire.P50 <= 0 {
			t.Fatalf("%s arm recorded no client latency: %+v", name, rep.Acquire)
		}
	}
	if ab.Fallback.ByKind["transfer"] != 0 {
		t.Errorf("fallback arm sent %d transfer messages", ab.Fallback.ByKind["transfer"])
	}
	if ab.Transfer.ByKind["transfer"] == 0 {
		t.Error("transfer arm sent no transfer messages; the A/B is not exercising the mechanism")
	}
	ratio := ab.HandoffRatio()
	t.Logf("handoff p50: transfer=%v fallback=%v ratio=%.2f (expect ~2.0)",
		time.Duration(ab.Transfer.Handoff.P50), time.Duration(ab.Fallback.Handoff.P50), ratio)
	if ratio < 1.3 {
		t.Errorf("fallback/transfer handoff p50 ratio = %.2f, want >= 1.3: the transfer path should roughly halve the handoff delay", ratio)
	}
}

// TestLiveHandoffAB measures the paper's T-versus-2T claim on a live
// deployment of both fabrics: with a deterministic per-hop delay, the p50
// release→next-entry handoff must be clearly lower under delay-optimal (the
// exiting site forwards) than under maekawa (release via the arbiter).
func TestLiveHandoffAB(t *testing.T) {
	if testing.Short() {
		t.Skip("live benchmark smoke; skipped in -short")
	}
	t.Run("inproc-grid9", func(t *testing.T) {
		ab, err := RunAB(abConfig(DriverInproc, 9, "grid", 4*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		checkAB(t, ab)
	})
	t.Run("tcp-tree7", func(t *testing.T) {
		ab, err := RunAB(abConfig(DriverTCP, 7, "tree", 2*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		checkAB(t, ab)
	})
}

// TestServiceScaling is the lock-service-tier smoke: a fixed 3-arbiter
// coterie serves a growing leased-client population over loopback TCP. The
// tentpole claim under test is that the per-CS protocol traffic — the
// paper's 3(K−1)..6(K−1) bound, a function of the coterie alone — stays
// flat as the client count quadruples.
func TestServiceScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("live benchmark smoke; skipped in -short")
	}
	perCS := make(map[int]float64)
	for _, nClients := range []int{8, 32} {
		rep, err := Run(Config{
			Driver:    DriverService,
			N:         3,
			Quorum:    "majority",
			Clients:   nClients,
			Resources: 4,
			Hold:      200 * time.Microsecond,
			Warmup:    150 * time.Millisecond,
			Measure:   600 * time.Millisecond,
			Seed:      7,
		})
		if err != nil {
			t.Fatalf("clients=%d: %v", nClients, err)
		}
		if rep.Ops == 0 || rep.Throughput <= 0 {
			t.Fatalf("clients=%d did no work: %+v", nClients, rep)
		}
		if rep.Clients != nClients || rep.Workers != nClients {
			t.Fatalf("clients=%d: report population wrong: clients=%d workers=%d",
				nClients, rep.Clients, rep.Workers)
		}
		if rep.MessagesPerCS <= 0 {
			t.Fatalf("clients=%d reported no protocol traffic: %+v", nClients, rep)
		}
		perCS[nClients] = rep.MessagesPerCS
		t.Logf("clients=%d: ops=%d thr=%.1f/s msgs/cs=%.2f acquire p50=%v",
			nClients, rep.Ops, rep.Throughput, rep.MessagesPerCS,
			time.Duration(rep.Acquire.P50))
	}
	// Flat within a loose noise margin: 4x the clients must not even double
	// the per-CS quorum traffic (it should barely move at all).
	if ratio := perCS[32] / perCS[8]; ratio > 2.0 {
		t.Errorf("messages/CS grew %.2fx from 8 to 32 clients; the coterie should absorb client growth", ratio)
	}
}

// TestReconfigureMidLoad is the online-membership benchmark smoke: a
// majority-5 cluster under saturated closed-loop load grows to 7 sites a
// third of the way into the measure window. The run must complete the
// switch, keep serving acquires on both sides of it, and report the
// split latency stats (p99 across the epoch switch) that land in the
// BENCH_live artifact.
func TestReconfigureMidLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("live benchmark smoke; skipped in -short")
	}
	rep, err := Run(Config{
		Driver:      DriverInproc,
		N:           5,
		Quorum:      "majority",
		Reconfigure: 7,
		Hold:        200 * time.Microsecond,
		Warmup:      150 * time.Millisecond,
		Measure:     1200 * time.Millisecond,
		Seed:        19,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 || rep.Throughput <= 0 {
		t.Fatalf("run did no work: %+v", rep)
	}
	if rep.ReconfigureN != 7 || rep.EpochAfter != 1 {
		t.Fatalf("switch not recorded: target=%d epoch=%d", rep.ReconfigureN, rep.EpochAfter)
	}
	if rep.SwitchMS <= 0 {
		t.Fatalf("switch duration not recorded: %+v", rep)
	}
	if rep.AcquireBefore == nil || rep.AcquireAfter == nil || rep.AcquireDuring == nil {
		t.Fatalf("split acquire stats missing: %+v", rep)
	}
	if rep.AcquireBefore.Count == 0 || rep.AcquireAfter.Count == 0 {
		t.Fatalf("no load on a side of the switch: before=%d after=%d",
			rep.AcquireBefore.Count, rep.AcquireAfter.Count)
	}
	if rep.AcquireBefore.P99 <= 0 || rep.AcquireAfter.P99 <= 0 {
		t.Fatalf("degenerate split p99: %+v / %+v", rep.AcquireBefore, rep.AcquireAfter)
	}
	t.Logf("switch 5→7 in %.1fms; acquire p99 before/during/after = %v/%v/%v (%d/%d/%d samples)",
		rep.SwitchMS,
		time.Duration(rep.AcquireBefore.P99), time.Duration(rep.AcquireDuring.P99), time.Duration(rep.AcquireAfter.P99),
		rep.AcquireBefore.Count, rep.AcquireDuring.Count, rep.AcquireAfter.Count)

	// The artifact must carry the split stats through a round-trip.
	dir := t.TempDir()
	path, err := NewArtifact("reconfigure", []*Report{rep}).Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	got := back.Runs[0]
	if got.ReconfigureN != 7 || got.SwitchMS != rep.SwitchMS ||
		got.AcquireBefore == nil || got.AcquireBefore.P99 != rep.AcquireBefore.P99 {
		t.Fatalf("artifact round-trip lost the switch stats: %+v", got)
	}
}

// TestBenchSmoke is the artifact-path smoke: a short deterministic sweep
// over grid-9 and tree-7 in-process clusters, written and re-read as a
// schema-checked BENCH_live JSON artifact with non-trivial throughput and
// latency percentiles.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live benchmark smoke; skipped in -short")
	}
	var runs []*Report
	for _, tc := range []struct {
		n      int
		quorum string
	}{
		{9, "grid"},
		{7, "tree"},
	} {
		rep, err := Run(Config{
			Driver:    DriverInproc,
			N:         tc.n,
			Quorum:    tc.quorum,
			Resources: 4,
			Dist:      DistZipf,
			Arrival:   ArrivalOpen,
			Rate:      400,
			Workers:   2 * tc.n,
			Hold:      200 * time.Microsecond,
			Warmup:    150 * time.Millisecond,
			Measure:   500 * time.Millisecond,
			Seed:      7,
		})
		if err != nil {
			t.Fatalf("%s-%d: %v", tc.quorum, tc.n, err)
		}
		if rep.Ops == 0 || rep.Throughput <= 0 {
			t.Fatalf("%s-%d did no work: %+v", tc.quorum, tc.n, rep)
		}
		if rep.Acquire.Count == 0 || rep.Acquire.P99 < rep.Acquire.P50 || rep.Acquire.P50 <= 0 {
			t.Fatalf("%s-%d has degenerate latency stats: %+v", tc.quorum, tc.n, rep.Acquire)
		}
		if rep.Messages == 0 || rep.MessagesPerCS <= 0 {
			t.Fatalf("%s-%d reported no protocol traffic: %+v", tc.quorum, tc.n, rep)
		}
		runs = append(runs, rep)
	}

	dir := t.TempDir()
	path, err := NewArtifact("smoke", runs).Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != SchemaVersion || back.Name != "smoke" || len(back.Runs) != 2 {
		t.Fatalf("artifact round-trip lost data: %+v", back)
	}
	for i, rep := range back.Runs {
		if rep.Throughput <= 0 || rep.Acquire.P95 <= 0 || rep.N != runs[i].N {
			t.Errorf("run %d lost fields in round-trip: %+v", i, rep)
		}
	}
}
