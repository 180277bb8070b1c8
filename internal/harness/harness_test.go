package harness

import (
	"strings"
	"testing"

	"dqmx/internal/core"
	"dqmx/internal/sim"
)

func TestRunValidations(t *testing.T) {
	if _, err := Run(Spec{N: 4, Algorithm: core.Algorithm{}, Load: LoadKind(99), PerSite: 1}); err == nil {
		t.Error("accepted unknown load kind")
	}
	if _, err := Run(Spec{N: 0, Algorithm: core.Algorithm{}, Load: Light, PerSite: 1}); err == nil {
		t.Error("accepted N=0")
	}
}

func TestTable1ShapeHolds(t *testing.T) {
	n := 25
	rows, err := Table1(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	get := func(name string) Table1Row {
		for _, r := range rows {
			if strings.HasPrefix(r.Algorithm, name) {
				return r
			}
		}
		t.Fatalf("algorithm %q missing", name)
		return Table1Row{}
	}
	lam, ra := get("lamport"), get("ricart-agrawala")
	mk, ours := get("maekawa"), get("delay-optimal")
	sk := get("suzuki-kasami")

	// Exact classical light-load counts.
	if lam.LightMsgs != float64(3*(n-1)) {
		t.Errorf("lamport light = %v, want %d", lam.LightMsgs, 3*(n-1))
	}
	if ra.LightMsgs != float64(2*(n-1)) {
		t.Errorf("ricart-agrawala light = %v, want %d", ra.LightMsgs, 2*(n-1))
	}
	// Quorum algorithms beat permission-broadcast algorithms on messages.
	if ours.HeavyMsgs >= lam.HeavyMsgs {
		t.Errorf("proposed heavy msgs %v should beat lamport %v", ours.HeavyMsgs, lam.HeavyMsgs)
	}
	// The headline: proposed ≈ T, Maekawa ≈ 2T.
	if !(ours.SyncDelayT < 1.5 && mk.SyncDelayT > 1.8) {
		t.Errorf("sync delays: proposed %v (want <1.5), maekawa %v (want >1.8)", ours.SyncDelayT, mk.SyncDelayT)
	}
	// Token algorithms keep delay T too.
	if sk.SyncDelayT > 1.3 {
		t.Errorf("suzuki-kasami sync delay %v, want ≈1", sk.SyncDelayT)
	}
}

func TestLightLoadMatchesFormula(t *testing.T) {
	rows, err := LightLoad([]int{9, 16, 25}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MsgsPerCS != r.ExpectedMsgs {
			t.Errorf("N=%d: msgs %v != 3(K-1) = %v", r.N, r.MsgsPerCS, r.ExpectedMsgs)
		}
		if r.ResponseT != r.ExpectedResp {
			t.Errorf("N=%d: response %v != %v", r.N, r.ResponseT, r.ExpectedResp)
		}
	}
}

func TestHeavyLoadWithinBand(t *testing.T) {
	rows, err := HeavyLoad([]int{9, 25}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MsgsPerCS < 3*float64(r.K-1) || r.MsgsPerCS > r.High+0.5 {
			t.Errorf("N=%d: %v msgs/CS outside [3(K-1), 6(K-1)=%v]", r.N, r.MsgsPerCS, r.High)
		}
	}
}

func TestSyncDelayRatioNearTwo(t *testing.T) {
	rows, err := SyncDelay([]int{25}, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Ratio < 1.4 || r.Ratio > 2.5 {
		t.Errorf("maekawa/proposed delay ratio = %v, want ≈2", r.Ratio)
	}
}

func TestThroughputNearlyDoubled(t *testing.T) {
	rows, err := Throughput(25, []sim.Time{10}, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.TputRatio < 1.4 {
		t.Errorf("throughput ratio = %v, want ≥1.4 (paper: ≈2)", r.TputRatio)
	}
	if r.WaitRatio > 0.75 {
		t.Errorf("waiting ratio = %v, want ≤0.75 (paper: ≈0.5)", r.WaitRatio)
	}
}

func TestQuorumSizesGrowth(t *testing.T) {
	rows, err := QuorumSizes([]int{49, 255})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]map[int]QuorumSizeRow{}
	for _, r := range rows {
		if byName[r.Construction] == nil {
			byName[r.Construction] = map[int]QuorumSizeRow{}
		}
		byName[r.Construction][r.N] = r
	}
	// Tree quorums are the smallest at large N; majority the largest.
	tree, grid, maj := byName["ae-tree"][255], byName["maekawa-grid"][255], byName["majority"][255]
	if !(tree.Avg < grid.Avg && grid.Avg < maj.Avg) {
		t.Errorf("expected tree < grid < majority at N=255: %v %v %v", tree.Avg, grid.Avg, maj.Avg)
	}
	// Tree path length is ⌈log2(N+1)⌉ on perfect trees.
	if tree.Max != 8 {
		t.Errorf("tree max K at N=255 = %d, want 8", tree.Max)
	}
	// Grid K is 2√N−1 on perfect squares.
	if byName["maekawa-grid"][49].Max != 13 {
		t.Errorf("grid max K at N=49 = %d, want 13", byName["maekawa-grid"][49].Max)
	}
}

func TestAvailabilityOrdering(t *testing.T) {
	rows := Availability(15, []float64{0.9}, 5000, 11)
	av := map[string]float64{}
	for _, r := range rows {
		av[r.Construction] = r.Availability
	}
	if av["majority"] <= av["singleton"] {
		t.Errorf("majority (%v) should beat singleton (%v) at p=0.9", av["majority"], av["singleton"])
	}
	if av["ae-tree"] <= av["singleton"] {
		t.Errorf("tree (%v) should beat singleton (%v) at p=0.9", av["ae-tree"], av["singleton"])
	}
}

func TestCrashRecoveryProgress(t *testing.T) {
	row, err := CrashRecovery(15, 3, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if row.FailureMsgs == 0 {
		t.Error("no failure notifications recorded")
	}
	// Crashed sites cannot finish their remaining executions, so completed
	// may fall short of the target, but survivors must have progressed well
	// past the pre-crash phase.
	if row.Completed < row.Expected-2*3 {
		t.Errorf("completed %d of %d", row.Completed, row.Expected)
	}
}

func TestLoadSweepMonotoneWaiting(t *testing.T) {
	rows, err := LoadSweep(16, []sim.Time{100, 10000, 200000}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !(rows[0].WaitingT > rows[2].WaitingT) {
		t.Errorf("waiting should shrink with think time: %v vs %v", rows[0].WaitingT, rows[2].WaitingT)
	}
}

func TestDelaySensitivityShapeStable(t *testing.T) {
	rows, err := DelaySensitivity(25, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Ratio < 1.3 {
			t.Errorf("%s: maekawa/proposed ratio %v, want ≥1.3 (shape must survive jitter)",
				r.Distribution, r.Ratio)
		}
		if r.Proposed >= r.Maekawa {
			t.Errorf("%s: proposed (%v) not faster than maekawa (%v)",
				r.Distribution, r.Proposed, r.Maekawa)
		}
	}
}

func TestScalabilityShapes(t *testing.T) {
	rows, err := Scalability([]int{25, 169}, 2)
	if err != nil {
		t.Fatal(err)
	}
	find := func(cons string, n int) ScalabilityRow {
		for _, r := range rows {
			if r.Construction == cons && r.N == n {
				return r
			}
		}
		t.Fatalf("row %s/%d missing", cons, n)
		return ScalabilityRow{}
	}
	// Grid messages grow ~√N (×2.6 from N=25→169); tree ~log N (×~1.6).
	g25, g169 := find("maekawa-grid", 25), find("maekawa-grid", 169)
	t25, t169 := find("ae-tree", 25), find("ae-tree", 169)
	gridGrowth := g169.MsgsPerCS / g25.MsgsPerCS
	treeGrowth := t169.MsgsPerCS / t25.MsgsPerCS
	if !(gridGrowth > 2.4 && gridGrowth < 3.6) {
		t.Errorf("grid message growth ×%.2f, want ≈ √(169/25) ≈ 2.6", gridGrowth)
	}
	if treeGrowth > 2.0 {
		t.Errorf("tree message growth ×%.2f, want sub-logarithmic ≲ 2", treeGrowth)
	}
	// Sync delay stays near T at every size.
	for _, r := range rows {
		if r.SyncDelay > 1.6 {
			t.Errorf("%s N=%d: sync delay %.2f T drifted from ≈T", r.Construction, r.N, r.SyncDelay)
		}
	}
}

func TestLinkFailuresComplete(t *testing.T) {
	row, err := LinkFailures(15, 3, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if row.Completed != row.Expected {
		t.Errorf("completed %d of %d despite link cuts", row.Completed, row.Expected)
	}
}

func TestQuorumIndependenceAllConstructions(t *testing.T) {
	rows, err := QuorumIndependence(13, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8 constructions", len(rows))
	}
	for _, r := range rows {
		if r.MsgsPerCS <= 0 && r.Construction != "singleton" {
			t.Errorf("%s: no messages measured", r.Construction)
		}
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	p := Params{Seed: 1, N: 9, Trials: 100}
	for _, e := range Evaluation() {
		tab, err := e.Table(p)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		var b strings.Builder
		if err := tab.Render(&b); err != nil {
			t.Fatal(err)
		}
		// Title, header, rule and at least one row.
		lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
		if tab.Title == "" || lines[0] != tab.Title {
			t.Errorf("%s: table has no title:\n%s", e.ID, b.String())
		}
		if len(lines) < 4 {
			t.Errorf("%s: table has no rows:\n%s", e.ID, b.String())
		}
	}
}
