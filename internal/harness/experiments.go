package harness

import (
	"fmt"
	"math"

	"dqmx/internal/core"
	"dqmx/internal/coterie"
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
		ours, mk, err := versusMaekawa(Spec{N: n, Load: Heavy, PerSite: 10, Seed: seed})
		if err != nil {
			return nil, err
		}
		rows = append(rows, SyncDelayRow{
			N: n, Proposed: ours.SyncDelay, Maekawa: mk.SyncDelay,
			Ratio: ratio(mk.SyncDelay, ours.SyncDelay),
		})
	}
	return rows, nil
}

// versusMaekawa runs spec twice: under the delay-optimal protocol and under
// Maekawa's, which is the same machine with the hand-off routed through the
// arbiter. Spec's Algorithm is ignored.
func versusMaekawa(spec Spec) (ours, mk sim.Result, err error) {
	spec.Algorithm = core.Algorithm{}
	if ours, err = Run(spec); err != nil {
		return ours, mk, err
	}
	spec.Algorithm = core.Algorithm{Handoff: core.ViaArbiter}
	mk, err = Run(spec)
	return ours, mk, err
}

// ratio returns a/b, or 0 when b is not positive.
func ratio(a, b float64) float64 {
	if b > 0 {
		return a / b
	}
	return 0
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
		ours, mk, err := versusMaekawa(Spec{N: n, Load: Heavy, PerSite: 10, Seed: seed, CSTime: e})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ThroughputRow{
			CSTime:        e,
			ProposedTput:  ours.Throughput,
			MaekawaTput:   mk.Throughput,
			TputRatio:     ratio(ours.Throughput, mk.Throughput),
			ProposedWaitT: ours.WaitingTime,
			MaekawaWaitT:  mk.WaitingTime,
			WaitRatio:     ratio(ours.WaitingTime, mk.WaitingTime),
		})
	}
	return rows, nil
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
		ours, mk, err := versusMaekawa(Spec{N: n, Load: Heavy, PerSite: 10, Seed: seed, Delay: d.delay})
		if err != nil {
			return nil, err
		}
		rows = append(rows, DelaySensitivityRow{
			Distribution: d.name, Proposed: ours.SyncDelay, Maekawa: mk.SyncDelay,
			Ratio: ratio(mk.SyncDelay, ours.SyncDelay),
		})
	}
	return rows, nil
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
	spec := Spec{N: n, Algorithm: core.Algorithm{Construction: coterie.Tree{}}, Load: Heavy, PerSite: perSite, Seed: seed}
	for i := 0; i < cuts; i++ {
		// Sever links between distinct leaf-side sites and inner nodes.
		spec.Cuts = append(spec.Cuts, LinkCut{At: sim.Time(1500 * (i + 1)), A: mutex.SiteID(n - 1 - i), B: mutex.SiteID(1 + i%2)})
	}
	res, err := Run(spec)
	if err != nil {
		return LinkFailureRow{}, err
	}
	return LinkFailureRow{
		N: n, Cuts: cuts,
		Completed: res.Completed,
		Expected:  n * perSite,
		MsgsPerCS: res.MessagesPerCS,
	}, nil
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
