package harness

import (
	"fmt"
	"slices"
	"strings"

	"dqmx/internal/mutex"
	"dqmx/internal/sim"
)

// This file is the evaluation: the ordered list of the tables in
// evaluation.txt. Each entry runs one typed runner with the evaluation's
// settings and renders its rows, so a new table or column is one edit here.

// Params are the evaluation's knobs.
type Params struct {
	Seed   int64 // simulation seed
	N      int   // system size of the per-size tables
	Trials int   // Monte Carlo trials of the availability table
}

// Experiment is one table of the evaluation.
type Experiment struct {
	// ID selects the table (benchtab -only).
	ID string
	// PartOf, when set, is the ID of the experiment this table belongs to:
	// selecting that ID selects this table too.
	PartOf string
	// Table runs the experiment and returns its titled table.
	Table func(Params) (*Table, error)
}

// Evaluation returns the tables of evaluation.txt in order.
func Evaluation() []Experiment {
	return []Experiment{
		{ID: "e1", Table: func(p Params) (*Table, error) {
			rows, err := Table1(p.N, p.Seed)
			return tabulate(rows, err, fmt.Sprintf("Table 1: message complexity and synchronization delay (N=%d, constant delay T)", p.N),
				[]string{"algorithm", "theory msgs", "theory delay", "light msgs/CS", "heavy msgs/CS", "sync delay (T)"},
				func(r Table1Row) []any {
					return []any{r.Algorithm, r.TheoryMsgs, r.TheoryDelay, r.LightMsgs, r.HeavyMsgs, r.SyncDelayT}
				})
		}},
		{ID: "e2", Table: func(p Params) (*Table, error) {
			rows, err := LightLoad([]int{9, 16, 25, 49, 81}, p.Seed)
			return tabulate(rows, err, "E2 (§5.1): light load — messages/CS and response time",
				[]string{"N", "K", "msgs/CS", "paper 3(K-1)", "response (T)", "paper 2T+E"},
				func(r LightLoadRow) []any {
					return []any{r.N, r.K, r.MsgsPerCS, r.ExpectedMsgs, r.ResponseT, r.ExpectedResp}
				})
		}},
		{ID: "e3", Table: func(p Params) (*Table, error) {
			rows, err := HeavyLoad([]int{9, 16, 25, 49}, p.Seed)
			return tabulate(rows, err, "E3 (§5.2): heavy load — messages/CS against the 5(K-1)..6(K-1) band",
				[]string{"N", "K", "msgs/CS", "5(K-1)", "6(K-1)",
					"request", "reply", "transfer", "fail", "inquire", "yield", "release"},
				func(r HeavyLoadRow) []any {
					return []any{r.N, r.K, r.MsgsPerCS, r.Low, r.High,
						r.ByKind[mutex.KindRequest], r.ByKind[mutex.KindReply], r.ByKind[mutex.KindTransfer],
						r.ByKind[mutex.KindFail], r.ByKind[mutex.KindInquire], r.ByKind[mutex.KindYield],
						r.ByKind[mutex.KindRelease]}
				})
		}},
		{ID: "e3b", PartOf: "e3", Table: func(p Params) (*Table, error) {
			h, err := HeavyLoadCases(p.N, 10, p.Seed, nil)
			total := float64(h.Cases.Total())
			desc := [6]string{
				"", "queue empty, loses to lock", "wins lock and head (inquire path)",
				"loses to head", "displaces winning head", "beats head, loses to lock",
			}
			return tabulate([]int{1, 2, 3, 4, 5}, err,
				fmt.Sprintf("E3b (§5.2): case frequencies at locked arbiters (N=%d)", p.N),
				[]string{"case", "description", "count", "share"},
				func(i int) []any {
					share := ratio(float64(h.Cases.Case[i]), total) * 100
					return []any{i, desc[i], h.Cases.Case[i], fmt.Sprintf("%.1f%%", share)}
				})
		}},
		{ID: "e4", Table: func(p Params) (*Table, error) {
			rows, err := SyncDelay([]int{9, 16, 25, 49}, p.Seed)
			return tabulate(rows, err, "E4 (§5.2): synchronization delay under heavy load (units of T)",
				[]string{"N", "delay-optimal", "maekawa", "maekawa/proposed"},
				func(r SyncDelayRow) []any { return []any{r.N, r.Proposed, r.Maekawa, r.Ratio} })
		}},
		{ID: "e5", Table: func(p Params) (*Table, error) {
			rows, err := Throughput(p.N, []sim.Time{10, 100, 500, 1000}, p.Seed)
			return tabulate(rows, err, fmt.Sprintf("E5 (§5.2): heavy-load throughput and waiting time (N=%d)", p.N),
				[]string{"E (CS time)", "proposed CS/T", "maekawa CS/T", "tput ratio",
					"proposed wait (T)", "maekawa wait (T)", "wait ratio"},
				func(r ThroughputRow) []any {
					return []any{int64(r.CSTime), r.ProposedTput, r.MaekawaTput, r.TputRatio,
						r.ProposedWaitT, r.MaekawaWaitT, r.WaitRatio}
				})
		}},
		{ID: "e6", Table: func(p Params) (*Table, error) {
			rows, err := QuorumSizes([]int{9, 25, 81, 255, 729})
			return tabulate(rows, err, "E6 (§6/§5.3): quorum size K by construction",
				[]string{"construction", "N", "avg K", "max K", "sqrt(N)", "log2(N)"},
				func(r QuorumSizeRow) []any { return []any{r.Construction, r.N, r.Avg, r.Max, r.SqrtN, r.Log2N} })
		}},
		{ID: "e7", Table: func(p Params) (*Table, error) {
			rows := Availability(31, []float64{0.50, 0.70, 0.80, 0.90, 0.95, 0.99}, p.Trials, p.Seed)
			return tabulate(rows, nil, "E7 (§6): quorum availability vs per-site up-probability p",
				[]string{"construction", "N", "p", "availability"},
				func(r AvailabilityRow) []any {
					return []any{r.Construction, r.N, fmt.Sprintf("%.2f", r.P), fmt.Sprintf("%.4f", r.Availability)}
				})
		}},
		{ID: "e8", Table: func(p Params) (*Table, error) {
			rows, err := sweep([]int{0, 1, 2, 3}, func(crashes int) (CrashRecoveryRow, error) {
				return CrashRecovery(15, 4, crashes, p.Seed)
			})
			return tabulate(rows, err, "E8 (§6): crash recovery with tree quorums",
				[]string{"N", "crashes", "completed", "issued target", "failure msgs", "msgs/CS"},
				func(r CrashRecoveryRow) []any {
					return []any{r.N, r.Crashes, r.Completed, r.Expected, r.FailureMsgs, r.MsgsPerCS}
				})
		}},
		{ID: "e9", Table: func(p Params) (*Table, error) {
			const n = 16
			rows, err := LoadSweep(n, []sim.Time{100, 500, 1000, 5000, 10000, 50000, 100000}, p.Seed)
			return tabulate(rows, err, fmt.Sprintf("E9 (§5): load sweep via mean think time (N=%d)", n),
				[]string{"think time", "msgs/CS", "sync delay (T)", "waiting (T)", "response (T)"},
				func(r LoadSweepRow) []any {
					return []any{int64(r.ThinkTime), r.MsgsPerCS, r.SyncDelay, r.WaitingT, r.ResponseT}
				})
		}},
		{ID: "e10", Table: func(p Params) (*Table, error) {
			const n = 13
			rows, err := QuorumIndependence(n, p.Seed)
			return tabulate(rows, err, fmt.Sprintf("E10 (§3): delay-optimal protocol across coteries (N=%d)", n),
				[]string{"construction", "avg K", "msgs/CS", "sync delay (T)"},
				func(r IndependenceRow) []any { return []any{r.Construction, r.K, r.MsgsPerCS, r.SyncDelay} })
		}},
		{ID: "e11", Table: func(p Params) (*Table, error) {
			rows, err := sweep([]int{0, 1, 2, 3}, func(cuts int) (LinkFailureRow, error) {
				return LinkFailures(15, 4, cuts, p.Seed)
			})
			return tabulate(rows, err, "E11 (§6): communication link failures with tree quorums",
				[]string{"N", "links cut", "completed", "target", "msgs/CS"},
				func(r LinkFailureRow) []any { return []any{r.N, r.Cuts, r.Completed, r.Expected, r.MsgsPerCS} })
		}},
		{ID: "e12", Table: func(p Params) (*Table, error) {
			rows, err := DelaySensitivity(p.N, p.Seed)
			return tabulate(rows, err,
				fmt.Sprintf("E12: sync delay under different delay distributions (N=%d, units of mean T)", p.N),
				[]string{"distribution", "delay-optimal", "maekawa", "ratio"},
				func(r DelaySensitivityRow) []any { return []any{r.Distribution, r.Proposed, r.Maekawa, r.Ratio} })
		}},
		{ID: "e13", Table: func(p Params) (*Table, error) {
			rows, err := Scalability([]int{9, 25, 49, 81, 121, 169}, p.Seed)
			return tabulate(rows, err, "E13: scalability of the delay-optimal protocol (heavy load)",
				[]string{"coterie", "N", "avg K", "msgs/CS", "sync delay (T)", "wait p99 (T)"},
				func(r ScalabilityRow) []any {
					return []any{r.Construction, r.N, r.K, r.MsgsPerCS, r.SyncDelay, r.WaitP99}
				})
		}},
		{ID: "multiseed", Table: func(p Params) (*Table, error) {
			const seeds = 10
			rows, err := RunMany(p.N, 8, seeds)
			return tabulate(rows, err,
				fmt.Sprintf("Table 1 (multi-seed): mean ± 95%% CI over %d seeds (N=%d, heavy load, exponential delays, mean T)", seeds, p.N),
				[]string{"algorithm", "msgs/CS", "sync delay (T)", "throughput (CS/T)"},
				func(r MultiSeedRow) []any {
					return []any{r.Algorithm, r.MsgsPerCS.String(), r.SyncDelayT.String(), r.Throughput.String()}
				})
		}},
	}
}

// EvaluationIDs returns the IDs of the evaluation's tables in order.
func EvaluationIDs() []string {
	var ids []string
	for _, e := range Evaluation() {
		ids = append(ids, e.ID)
	}
	return ids
}

// SelectEvaluation returns, in evaluation order, the tables named by the
// comma-separated ids in only, and the tables that are part of them; an
// empty list selects every table. An unknown id is an error that names the
// valid ones.
func SelectEvaluation(only string) ([]Experiment, error) {
	ids, want := EvaluationIDs(), map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.ToLower(strings.TrimSpace(id)); id == "" {
			continue
		}
		if !slices.Contains(ids, id) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(ids, ", "))
		}
		want[id] = true
	}
	var sel []Experiment
	for _, e := range Evaluation() {
		if len(want) == 0 || want[e.ID] || want[e.PartOf] {
			sel = append(sel, e)
		}
	}
	return sel, nil
}

// tabulate renders rows, one line per row, under title and header; a
// runner's error passes through.
func tabulate[R any](rows []R, err error, title string, header []string, cells func(R) []any) (*Table, error) {
	if err != nil {
		return nil, err
	}
	tab := NewTable(header...)
	tab.Title = title
	for _, r := range rows {
		tab.AddRow(cells(r)...)
	}
	return tab, nil
}

// sweep runs one runner per x and collects its rows.
func sweep[X, R any](xs []X, run func(X) (R, error)) ([]R, error) {
	rows := make([]R, 0, len(xs))
	for _, x := range xs {
		r, err := run(x)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}
