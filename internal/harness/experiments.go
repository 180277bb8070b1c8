package harness

import (
	"fmt"
	"io"
	"math"

	"dqmx/internal/core"
	"dqmx/internal/coterie"
	"dqmx/internal/metrics"
	"dqmx/internal/mutex"
	"dqmx/internal/sim"
	"dqmx/internal/workload"
)

// --- E1: Table 1 — algorithm comparison -------------------------------------

// Table1Row compares one algorithm's theoretical and measured costs.
type Table1Row struct {
	Algorithm   string
	TheoryMsgs  string
	TheoryDelay string
	LightMsgs   float64 // measured messages/CS without contention
	HeavyMsgs   float64 // measured messages/CS under saturation
	SyncDelayT  float64 // measured handover delay in units of T
}

// Table1 reproduces the paper's Table 1 at system size n.
func Table1(n int, seed int64) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, 6)
	for _, e := range Algorithms() {
		light, err := Run(Spec{N: n, Algorithm: e.Algorithm, Load: Light, PerSite: 20, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("table1 light: %w", err)
		}
		heavy, err := Run(Spec{N: n, Algorithm: e.Algorithm, Load: Heavy, PerSite: 10, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("table1 heavy: %w", err)
		}
		rows = append(rows, Table1Row{
			Algorithm:   e.Algorithm.Name(),
			TheoryMsgs:  e.TheoryMsgs,
			TheoryDelay: e.TheoryDelay,
			LightMsgs:   light.MessagesPerCS,
			HeavyMsgs:   heavy.MessagesPerCS,
			SyncDelayT:  heavy.SyncDelay,
		})
	}
	return rows, nil
}

// RenderTable1 writes Table 1 as text.
func RenderTable1(rows []Table1Row, n int, w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Table 1: message complexity and synchronization delay (N=%d)\n", n); err != nil {
		return err
	}
	tab := metrics.NewTable("algorithm", "theory msgs", "theory delay", "light msgs/CS", "heavy msgs/CS", "sync delay (T)")
	for _, r := range rows {
		tab.AddRow(r.Algorithm, r.TheoryMsgs, r.TheoryDelay, r.LightMsgs, r.HeavyMsgs, r.SyncDelayT)
	}
	return tab.Render(w)
}

// --- E2: §5.1 light load -----------------------------------------------------

// LightLoadRow checks the 3(K−1) messages and 2T+E response of one system
// size.
type LightLoadRow struct {
	N            int
	K            int
	MsgsPerCS    float64
	ExpectedMsgs float64 // 3(K−1)
	ResponseT    float64 // in units of T
	ExpectedResp float64 // 2 + E/T
}

// LightLoad reproduces §5.1 across system sizes.
func LightLoad(ns []int, seed int64) ([]LightLoadRow, error) {
	rows := make([]LightLoadRow, 0, len(ns))
	for _, n := range ns {
		assign, err := (coterie.Grid{}).Assign(n)
		if err != nil {
			return nil, err
		}
		k := assign.MaxQuorumSize()
		res, err := Run(Spec{N: n, Algorithm: core.Algorithm{}, Load: Light, PerSite: 20, Seed: seed})
		if err != nil {
			return nil, err
		}
		rows = append(rows, LightLoadRow{
			N: n, K: k,
			MsgsPerCS:    res.MessagesPerCS,
			ExpectedMsgs: float64(3 * (k - 1)),
			ResponseT:    res.ResponseTime,
			ExpectedResp: 2 + float64(DefaultCSTime)/float64(DefaultDelay),
		})
	}
	return rows, nil
}

// RenderLightLoad writes the §5.1 table.
func RenderLightLoad(rows []LightLoadRow, w io.Writer) error {
	if _, err := fmt.Fprintln(w, "E2 (§5.1): light load — messages/CS and response time"); err != nil {
		return err
	}
	tab := metrics.NewTable("N", "K", "msgs/CS", "paper 3(K-1)", "response (T)", "paper 2T+E")
	for _, r := range rows {
		tab.AddRow(r.N, r.K, r.MsgsPerCS, r.ExpectedMsgs, r.ResponseT, r.ExpectedResp)
	}
	return tab.Render(w)
}

// --- E3: §5.2 heavy-load message bounds --------------------------------------

// HeavyLoadRow checks the [5(K−1), 6(K−1)] band at one system size.
type HeavyLoadRow struct {
	N         int
	K         int
	MsgsPerCS float64
	Low       float64 // 5(K−1) — the paper's typical heavy-load cases
	High      float64 // 6(K−1) — the worst case (4.2)
	ByKind    map[string]uint64
}

// HeavyLoad reproduces §5.2's per-case message analysis across sizes.
func HeavyLoad(ns []int, seed int64) ([]HeavyLoadRow, error) {
	rows := make([]HeavyLoadRow, 0, len(ns))
	for _, n := range ns {
		assign, err := (coterie.Grid{}).Assign(n)
		if err != nil {
			return nil, err
		}
		k := assign.MaxQuorumSize()
		res, err := Run(Spec{N: n, Algorithm: core.Algorithm{}, Load: Heavy, PerSite: 10, Seed: seed})
		if err != nil {
			return nil, err
		}
		rows = append(rows, HeavyLoadRow{
			N: n, K: k,
			MsgsPerCS: res.MessagesPerCS,
			Low:       5 * float64(k-1),
			High:      6 * float64(k-1),
			ByKind:    res.ByKind,
		})
	}
	return rows, nil
}

// RenderHeavyLoad writes the §5.2 table.
func RenderHeavyLoad(rows []HeavyLoadRow, w io.Writer) error {
	if _, err := fmt.Fprintln(w, "E3 (§5.2): heavy load — messages/CS against the 5(K-1)..6(K-1) band"); err != nil {
		return err
	}
	tab := metrics.NewTable("N", "K", "msgs/CS", "5(K-1)", "6(K-1)",
		"request", "reply", "transfer", "fail", "inquire", "yield", "release")
	for _, r := range rows {
		tab.AddRow(r.N, r.K, r.MsgsPerCS, r.Low, r.High,
			r.ByKind[mutex.KindRequest], r.ByKind[mutex.KindReply], r.ByKind[mutex.KindTransfer],
			r.ByKind[mutex.KindFail], r.ByKind[mutex.KindInquire], r.ByKind[mutex.KindYield],
			r.ByKind[mutex.KindRelease])
	}
	return tab.Render(w)
}

// CaseHistogram aggregates the §5.2 case classification of every arrival at
// a locked arbiter across a saturated run (the measured counterpart of the
// paper's per-case message analysis).
type CaseHistogram struct {
	N     int
	Cases core.CaseStats
}

// HeavyLoadCases measures how often each §5.2 case occurs under saturation.
// A nil delay uses the exponential distribution — random delays are what
// exercise the preemption cases (2, 4, 5); under constant delay requests
// arrive in priority order and case 3 dominates.
func HeavyLoadCases(n, perSite int, seed int64, delay sim.Delay) (CaseHistogram, error) {
	if delay == nil {
		delay = sim.ExponentialDelay{MeanD: DefaultDelay}
	}
	c, err := sim.NewCluster(sim.Config{
		N: n, Algorithm: core.Algorithm{}, Delay: delay,
		Seed: seed, CSTime: DefaultCSTime,
	})
	if err != nil {
		return CaseHistogram{}, err
	}
	workload.Saturated(c, perSite)
	c.Run(0)
	if err := c.Err(); err != nil {
		return CaseHistogram{}, err
	}
	hist := CaseHistogram{N: n}
	for _, s := range c.Sites {
		if cs, ok := s.(*core.Site); ok {
			stats := cs.Cases()
			for i := range stats.Case {
				hist.Cases.Case[i] += stats.Case[i]
			}
		}
	}
	return hist, nil
}

// RenderCaseHistogram writes the §5.2 case frequencies.
func RenderCaseHistogram(h CaseHistogram, w io.Writer) error {
	if _, err := fmt.Fprintf(w, "E3b (§5.2): case frequencies at locked arbiters (N=%d)\n", h.N); err != nil {
		return err
	}
	tab := metrics.NewTable("case", "description", "count", "share")
	desc := [6]string{
		"", "queue empty, loses to lock", "wins lock and head (inquire path)",
		"loses to head", "displaces winning head", "beats head, loses to lock",
	}
	total := h.Cases.Total()
	for i := 1; i <= 5; i++ {
		share := 0.0
		if total > 0 {
			share = float64(h.Cases.Case[i]) / float64(total) * 100
		}
		tab.AddRow(i, desc[i], h.Cases.Case[i], fmt.Sprintf("%.1f%%", share))
	}
	return tab.Render(w)
}

// --- E4: sync delay T vs 2T ---------------------------------------------------

// SyncDelayRow compares the handover delay of the proposed algorithm and
// Maekawa's at one system size.
type SyncDelayRow struct {
	N        int
	Proposed float64 // in T
	Maekawa  float64 // in T
	Ratio    float64 // Maekawa / Proposed
}

// SyncDelay reproduces the headline T-vs-2T comparison.
func SyncDelay(ns []int, seed int64) ([]SyncDelayRow, error) {
	rows := make([]SyncDelayRow, 0, len(ns))
	for _, n := range ns {
		ours, err := Run(Spec{N: n, Algorithm: core.Algorithm{}, Load: Heavy, PerSite: 10, Seed: seed})
		if err != nil {
			return nil, err
		}
		mk, err := Run(Spec{N: n, Algorithm: core.Algorithm{Handoff: core.ViaArbiter}, Load: Heavy, PerSite: 10, Seed: seed})
		if err != nil {
			return nil, err
		}
		row := SyncDelayRow{N: n, Proposed: ours.SyncDelay, Maekawa: mk.SyncDelay}
		if row.Proposed > 0 {
			row.Ratio = row.Maekawa / row.Proposed
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderSyncDelay writes the E4 table.
func RenderSyncDelay(rows []SyncDelayRow, w io.Writer) error {
	if _, err := fmt.Fprintln(w, "E4 (§5.2): synchronization delay under heavy load (units of T)"); err != nil {
		return err
	}
	tab := metrics.NewTable("N", "delay-optimal", "maekawa", "maekawa/proposed")
	for _, r := range rows {
		tab.AddRow(r.N, r.Proposed, r.Maekawa, r.Ratio)
	}
	return tab.Render(w)
}

// --- E5: throughput and waiting time -----------------------------------------

// ThroughputRow compares saturated throughput (CS executions per T) and mean
// waiting time across the two quorum algorithms for one CS length.
type ThroughputRow struct {
	CSTime        sim.Time
	ProposedTput  float64
	MaekawaTput   float64
	TputRatio     float64
	ProposedWaitT float64
	MaekawaWaitT  float64
	WaitRatio     float64
}

// Throughput reproduces §5.2's "throughput is doubled / waiting time is
// nearly halved" claim over a sweep of CS execution times E.
func Throughput(n int, csTimes []sim.Time, seed int64) ([]ThroughputRow, error) {
	rows := make([]ThroughputRow, 0, len(csTimes))
	for _, e := range csTimes {
		ours, err := Run(Spec{N: n, Algorithm: core.Algorithm{}, Load: Heavy, PerSite: 10, Seed: seed, CSTime: e})
		if err != nil {
			return nil, err
		}
		mk, err := Run(Spec{N: n, Algorithm: core.Algorithm{Handoff: core.ViaArbiter}, Load: Heavy, PerSite: 10, Seed: seed, CSTime: e})
		if err != nil {
			return nil, err
		}
		row := ThroughputRow{
			CSTime:        e,
			ProposedTput:  ours.Throughput,
			MaekawaTput:   mk.Throughput,
			ProposedWaitT: ours.WaitingTime,
			MaekawaWaitT:  mk.WaitingTime,
		}
		if mk.Throughput > 0 {
			row.TputRatio = ours.Throughput / mk.Throughput
		}
		if mk.WaitingTime > 0 {
			row.WaitRatio = ours.WaitingTime / mk.WaitingTime
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderThroughput writes the E5 table.
func RenderThroughput(rows []ThroughputRow, n int, w io.Writer) error {
	if _, err := fmt.Fprintf(w, "E5 (§5.2): heavy-load throughput and waiting time (N=%d)\n", n); err != nil {
		return err
	}
	tab := metrics.NewTable("E (CS time)", "proposed CS/T", "maekawa CS/T", "tput ratio",
		"proposed wait (T)", "maekawa wait (T)", "wait ratio")
	for _, r := range rows {
		tab.AddRow(int64(r.CSTime), r.ProposedTput, r.MaekawaTput, r.TputRatio,
			r.ProposedWaitT, r.MaekawaWaitT, r.WaitRatio)
	}
	return tab.Render(w)
}

// --- E6: quorum sizes (§6, §5.3) -----------------------------------------------

// QuorumSizeRow records the measured quorum sizes of one construction at one
// system size.
type QuorumSizeRow struct {
	Construction string
	N            int
	Avg          float64
	Max          int
	SqrtN        float64
	Log2N        float64
}

// QuorumSizes measures K for every construction across system sizes. The
// finite-projective-plane construction is included for the sizes it
// supports (N = q²+q+1, q prime).
func QuorumSizes(ns []int) ([]QuorumSizeRow, error) {
	var rows []QuorumSizeRow
	for _, c := range append(coterie.Constructions(), coterie.FPP{}) {
		for _, n := range ns {
			a, err := c.Assign(n)
			if err != nil {
				if c.Name() == "fpp" {
					continue // size not of the form q²+q+1
				}
				return nil, fmt.Errorf("%s n=%d: %w", c.Name(), n, err)
			}
			rows = append(rows, QuorumSizeRow{
				Construction: c.Name(), N: n,
				Avg: a.AvgQuorumSize(), Max: a.MaxQuorumSize(),
				SqrtN: math.Sqrt(float64(n)), Log2N: math.Log2(float64(n)),
			})
		}
	}
	return rows, nil
}

// RenderQuorumSizes writes the E6 table.
func RenderQuorumSizes(rows []QuorumSizeRow, w io.Writer) error {
	if _, err := fmt.Fprintln(w, "E6 (§6/§5.3): quorum size K by construction"); err != nil {
		return err
	}
	tab := metrics.NewTable("construction", "N", "avg K", "max K", "sqrt(N)", "log2(N)")
	for _, r := range rows {
		tab.AddRow(r.Construction, r.N, r.Avg, r.Max, r.SqrtN, r.Log2N)
	}
	return tab.Render(w)
}

// --- E7: availability (§6 resiliency) ------------------------------------------

// AvailabilityRow records quorum availability of one construction at one
// per-site up-probability.
type AvailabilityRow struct {
	Construction string
	N            int
	P            float64
	Availability float64
}

// Availability estimates quorum availability for every construction over a
// sweep of up-probabilities.
func Availability(n int, ps []float64, trials int, seed int64) []AvailabilityRow {
	var rows []AvailabilityRow
	for _, c := range coterie.Constructions() {
		for _, p := range ps {
			rows = append(rows, AvailabilityRow{
				Construction: c.Name(), N: n, P: p,
				Availability: coterie.Availability(c, n, p, trials, seed),
			})
		}
	}
	return rows
}

// RenderAvailability writes the E7 table.
func RenderAvailability(rows []AvailabilityRow, w io.Writer) error {
	if _, err := fmt.Fprintln(w, "E7 (§6): quorum availability vs per-site up-probability p"); err != nil {
		return err
	}
	tab := metrics.NewTable("construction", "N", "p", "availability")
	for _, r := range rows {
		tab.AddRow(r.Construction, r.N, fmt.Sprintf("%.2f", r.P), fmt.Sprintf("%.4f", r.Availability))
	}
	return tab.Render(w)
}

// --- E8: crash recovery ---------------------------------------------------------

// CrashRecoveryRow summarizes one crash-injection run.
type CrashRecoveryRow struct {
	N           int
	Crashes     int
	Completed   int
	Expected    int
	FailureMsgs uint64
	TotalMsgs   uint64
	MsgsPerCS   float64
}

// CrashRecovery runs a saturated tree-quorum workload, crashes sites
// mid-run, and reports progress and overhead (E8).
func CrashRecovery(n, perSite, crashes int, seed int64) (CrashRecoveryRow, error) {
	spec := Spec{N: n, Algorithm: core.Algorithm{Construction: coterie.Tree{}}, Load: Heavy, PerSite: perSite, Seed: seed}
	for i := 0; i < crashes; i++ {
		// Crash leaf-side sites so tree substitution paths always survive.
		spec.Crashes = append(spec.Crashes, Crash{At: sim.Time(2000 * (i + 1)), Site: mutex.SiteID(n - 1 - i)})
	}
	res, err := Run(spec)
	if err != nil {
		return CrashRecoveryRow{}, err
	}
	return CrashRecoveryRow{
		N: n, Crashes: crashes,
		Completed:   res.Completed,
		Expected:    n * perSite,
		FailureMsgs: res.ByKind[mutex.KindFailure],
		TotalMsgs:   res.TotalMessages,
		MsgsPerCS:   res.MessagesPerCS,
	}, nil
}

// RenderCrashRecovery writes the E8 table.
func RenderCrashRecovery(rows []CrashRecoveryRow, w io.Writer) error {
	if _, err := fmt.Fprintln(w, "E8 (§6): crash recovery with tree quorums"); err != nil {
		return err
	}
	tab := metrics.NewTable("N", "crashes", "completed", "issued target", "failure msgs", "msgs/CS")
	for _, r := range rows {
		tab.AddRow(r.N, r.Crashes, r.Completed, r.Expected, r.FailureMsgs, r.MsgsPerCS)
	}
	return tab.Render(w)
}

// --- E13: scalability ------------------------------------------------------------

// ScalabilityRow records the protocol's cost at one system size over one
// coterie.
type ScalabilityRow struct {
	Construction string
	N            int
	K            float64
	MsgsPerCS    float64
	SyncDelay    float64
	WaitP99      float64
}

// Scalability sweeps the system size for the delay-optimal protocol over
// grid and tree quorums (E13): messages/CS must track the quorum size
// (√N vs log N) while the sync delay stays ≈ T.
func Scalability(ns []int, seed int64) ([]ScalabilityRow, error) {
	var rows []ScalabilityRow
	for _, cons := range []coterie.Construction{coterie.Grid{}, coterie.Tree{}} {
		for _, n := range ns {
			assign, err := cons.Assign(n)
			if err != nil {
				return nil, err
			}
			res, err := Run(Spec{
				N: n, Algorithm: core.Algorithm{Construction: cons},
				Load: Heavy, PerSite: 5, Seed: seed,
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, ScalabilityRow{
				Construction: cons.Name(),
				N:            n,
				K:            assign.AvgQuorumSize(),
				MsgsPerCS:    res.MessagesPerCS,
				SyncDelay:    res.SyncDelay,
				WaitP99:      res.WaitingP99,
			})
		}
	}
	return rows, nil
}

// RenderScalability writes the E13 table.
func RenderScalability(rows []ScalabilityRow, w io.Writer) error {
	if _, err := fmt.Fprintln(w, "E13: scalability of the delay-optimal protocol (heavy load)"); err != nil {
		return err
	}
	tab := metrics.NewTable("coterie", "N", "avg K", "msgs/CS", "sync delay (T)", "wait p99 (T)")
	for _, r := range rows {
		tab.AddRow(r.Construction, r.N, r.K, r.MsgsPerCS, r.SyncDelay, r.WaitP99)
	}
	return tab.Render(w)
}

// --- E12: delay-distribution sensitivity ----------------------------------------

// DelaySensitivityRow compares handover delays under one delay distribution.
type DelaySensitivityRow struct {
	Distribution string
	Proposed     float64
	Maekawa      float64
	Ratio        float64
}

// DelaySensitivity measures the T-vs-2T comparison under constant, uniform,
// and exponential message delays (E12): the paper's unit-delay analysis uses
// constant delays; the comparison's *shape* must survive realistic jitter.
func DelaySensitivity(n int, seed int64) ([]DelaySensitivityRow, error) {
	dists := []struct {
		name  string
		delay sim.Delay
	}{
		{"constant", sim.ConstantDelay{D: DefaultDelay}},
		{"uniform[T/2,3T/2]", sim.UniformDelay{Lo: DefaultDelay / 2, Hi: 3 * DefaultDelay / 2}},
		{"exponential", sim.ExponentialDelay{MeanD: DefaultDelay}},
	}
	rows := make([]DelaySensitivityRow, 0, len(dists))
	for _, d := range dists {
		ours, err := Run(Spec{N: n, Algorithm: core.Algorithm{}, Load: Heavy, PerSite: 10, Seed: seed, Delay: d.delay})
		if err != nil {
			return nil, err
		}
		mk, err := Run(Spec{N: n, Algorithm: core.Algorithm{Handoff: core.ViaArbiter}, Load: Heavy, PerSite: 10, Seed: seed, Delay: d.delay})
		if err != nil {
			return nil, err
		}
		row := DelaySensitivityRow{Distribution: d.name, Proposed: ours.SyncDelay, Maekawa: mk.SyncDelay}
		if row.Proposed > 0 {
			row.Ratio = row.Maekawa / row.Proposed
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderDelaySensitivity writes the E12 table.
func RenderDelaySensitivity(rows []DelaySensitivityRow, n int, w io.Writer) error {
	if _, err := fmt.Fprintf(w, "E12: sync delay under different delay distributions (N=%d, units of mean T)\n", n); err != nil {
		return err
	}
	tab := metrics.NewTable("distribution", "delay-optimal", "maekawa", "ratio")
	for _, r := range rows {
		tab.AddRow(r.Distribution, r.Proposed, r.Maekawa, r.Ratio)
	}
	return tab.Render(w)
}

// --- E11: communication link failures ------------------------------------------

// LinkFailureRow summarizes a run with severed links.
type LinkFailureRow struct {
	N         int
	Cuts      int
	Completed int
	Expected  int
	MsgsPerCS float64
}

// LinkFailures runs a saturated tree-quorum workload while cutting
// communication links mid-run; each endpoint locally reroutes its quorum
// around the unreachable peer (E11 — the paper's "resiliency to site and
// communication link failures").
func LinkFailures(n, perSite, cuts int, seed int64) (LinkFailureRow, error) {
	c, err := sim.NewCluster(sim.Config{
		N:         n,
		Algorithm: core.Algorithm{Construction: coterie.Tree{}},
		Delay:     sim.ConstantDelay{D: DefaultDelay},
		Seed:      seed,
		CSTime:    DefaultCSTime,
	})
	if err != nil {
		return LinkFailureRow{}, err
	}
	workload.Saturated(c, perSite)
	// Sever links between distinct leaf-side sites and inner nodes.
	for i := 0; i < cuts; i++ {
		a := mutex.SiteID(n - 1 - i)
		b := mutex.SiteID(1 + i%2)
		c.CutLinkAt(sim.Time(1500*(i+1)), a, b)
	}
	c.Run(0)
	if err := c.Err(); err != nil {
		return LinkFailureRow{}, err
	}
	row := LinkFailureRow{N: n, Cuts: cuts, Completed: c.Completed(), Expected: n * perSite}
	if row.Completed > 0 {
		row.MsgsPerCS = float64(c.Net.Total()) / float64(row.Completed)
	}
	return row, nil
}

// RenderLinkFailures writes the E11 table.
func RenderLinkFailures(rows []LinkFailureRow, w io.Writer) error {
	if _, err := fmt.Fprintln(w, "E11 (§6): communication link failures with tree quorums"); err != nil {
		return err
	}
	tab := metrics.NewTable("N", "links cut", "completed", "target", "msgs/CS")
	for _, r := range rows {
		tab.AddRow(r.N, r.Cuts, r.Completed, r.Expected, r.MsgsPerCS)
	}
	return tab.Render(w)
}

// --- E9: load sweep --------------------------------------------------------------

// LoadSweepRow records one operating point of the light→heavy sweep.
type LoadSweepRow struct {
	ThinkTime sim.Time
	MsgsPerCS float64
	SyncDelay float64
	WaitingT  float64
	ResponseT float64
}

// LoadSweep crosses from near-saturation to near-idle via the closed-loop
// Poisson think time (E9).
func LoadSweep(n int, thinks []sim.Time, seed int64) ([]LoadSweepRow, error) {
	rows := make([]LoadSweepRow, 0, len(thinks))
	for _, th := range thinks {
		res, err := Run(Spec{N: n, Algorithm: core.Algorithm{}, Load: Think, ThinkTime: th, PerSite: 10, Seed: seed})
		if err != nil {
			return nil, err
		}
		rows = append(rows, LoadSweepRow{
			ThinkTime: th,
			MsgsPerCS: res.MessagesPerCS,
			SyncDelay: res.SyncDelay,
			WaitingT:  res.WaitingTime,
			ResponseT: res.ResponseTime,
		})
	}
	return rows, nil
}

// RenderLoadSweep writes the E9 series.
func RenderLoadSweep(rows []LoadSweepRow, n int, w io.Writer) error {
	if _, err := fmt.Fprintf(w, "E9 (§5): load sweep via mean think time (N=%d)\n", n); err != nil {
		return err
	}
	tab := metrics.NewTable("think time", "msgs/CS", "sync delay (T)", "waiting (T)", "response (T)")
	for _, r := range rows {
		tab.AddRow(int64(r.ThinkTime), r.MsgsPerCS, r.SyncDelay, r.WaitingT, r.ResponseT)
	}
	return tab.Render(w)
}

// --- E10: quorum independence ------------------------------------------------------

// IndependenceRow records the protocol's behaviour over one coterie.
type IndependenceRow struct {
	Construction string
	K            float64
	MsgsPerCS    float64
	SyncDelay    float64
}

// QuorumIndependence runs the delay-optimal protocol unmodified over every
// coterie construction (E10).
func QuorumIndependence(n int, seed int64) ([]IndependenceRow, error) {
	var rows []IndependenceRow
	for _, c := range coterie.Constructions() {
		assign, err := c.Assign(n)
		if err != nil {
			return nil, err
		}
		res, err := Run(Spec{N: n, Algorithm: core.Algorithm{Construction: c}, Load: Heavy, PerSite: 8, Seed: seed})
		if err != nil {
			return nil, err
		}
		rows = append(rows, IndependenceRow{
			Construction: c.Name(),
			K:            assign.AvgQuorumSize(),
			MsgsPerCS:    res.MessagesPerCS,
			SyncDelay:    res.SyncDelay,
		})
	}
	return rows, nil
}

// RenderQuorumIndependence writes the E10 table.
func RenderQuorumIndependence(rows []IndependenceRow, n int, w io.Writer) error {
	if _, err := fmt.Fprintf(w, "E10 (§3): delay-optimal protocol across coteries (N=%d)\n", n); err != nil {
		return err
	}
	tab := metrics.NewTable("construction", "avg K", "msgs/CS", "sync delay (T)")
	for _, r := range rows {
		tab.AddRow(r.Construction, r.K, r.MsgsPerCS, r.SyncDelay)
	}
	return tab.Render(w)
}
