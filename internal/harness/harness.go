// Package harness runs the paper's experiments (E1–E13 and M1 in DESIGN.md)
// on the discrete-event simulator. Every public experiment function returns
// typed rows, which the tests and the benchmarks (bench_test.go) assert on;
// Evaluation lists the tables of evaluation.txt in order, each rendering
// one runner's rows, and cmd/benchtab prints them.
package harness

import (
	"fmt"

	"dqmx/internal/core"
	"dqmx/internal/lamport"
	"dqmx/internal/mutex"
	"dqmx/internal/obs"
	"dqmx/internal/raymond"
	"dqmx/internal/ricartagrawala"
	"dqmx/internal/sim"
	"dqmx/internal/singhal"
	"dqmx/internal/suzukikasami"
	"dqmx/internal/workload"
)

// DefaultDelay is the mean message delay T used by all experiments.
const DefaultDelay = sim.Time(1000)

// DefaultCSTime is the critical-section execution time E (E ≪ T, matching
// the paper's synchronization-delay-dominated regime).
const DefaultCSTime = sim.Time(10)

// LoadKind selects the workload shape.
type LoadKind int

// Workload shapes.
const (
	// Light issues requests one at a time with no contention (§5.1).
	Light LoadKind = iota + 1
	// Heavy saturates every site (§5.2).
	Heavy
	// Think uses a closed-loop Poisson think time (the light→heavy sweep).
	Think
)

// Spec describes one simulation run.
type Spec struct {
	N         int
	Algorithm mutex.Algorithm
	Load      LoadKind
	// ThinkTime is the mean think time for Load == Think.
	ThinkTime sim.Time
	// PerSite is the number of CS executions per site (Heavy/Think) or the
	// total request count (Light).
	PerSite int
	Seed    int64
	// Delay defaults to ConstantDelay{DefaultDelay}.
	Delay sim.Delay
	// CSTime defaults to DefaultCSTime.
	CSTime sim.Time
	// Observer, when non-nil, receives every protocol event of the run
	// (see internal/obs).
	Observer obs.Sink
	// Crashes are the sites stopped during the run; survivors learn of each
	// after the simulator's failure-detection delay and run §6 recovery.
	Crashes []Crash
	// Cuts are the links severed during the run; after the detection delay
	// each endpoint suspects the other and reroutes its quorum around it.
	Cuts []LinkCut
}

// Crash stops Site at virtual time At.
type Crash struct {
	At   sim.Time
	Site mutex.SiteID
}

// LinkCut severs the link between A and B at virtual time At.
type LinkCut struct {
	At   sim.Time
	A, B mutex.SiteID
}

// Run executes one simulation and returns its metrics. Any safety or
// liveness violation is returned as an error.
func Run(spec Spec) (sim.Result, error) {
	delay := spec.Delay
	if delay == nil {
		delay = sim.ConstantDelay{D: DefaultDelay}
	}
	cst := spec.CSTime
	if cst == 0 {
		cst = DefaultCSTime
	}
	c, err := sim.NewCluster(sim.Config{
		N: spec.N, Algorithm: spec.Algorithm, Delay: delay, Seed: spec.Seed, CSTime: cst,
		Observer: spec.Observer,
	})
	if err != nil {
		return sim.Result{}, err
	}
	switch spec.Load {
	case Light:
		workload.Sequential(c, spec.PerSite, 100*delay.Mean())
	case Heavy:
		workload.Saturated(c, spec.PerSite)
	case Think:
		workload.ClosedPoisson(c, spec.ThinkTime, spec.PerSite, spec.Seed+1)
	default:
		return sim.Result{}, fmt.Errorf("harness: unknown load kind %d", spec.Load)
	}
	for _, cr := range spec.Crashes {
		c.CrashAt(cr.At, cr.Site)
	}
	for _, l := range spec.Cuts {
		c.CutLinkAt(l.At, l.A, l.B)
	}
	c.Run(0)
	if err := c.Err(); err != nil {
		return sim.Result{}, fmt.Errorf("%s n=%d seed=%d: %w", spec.Algorithm.Name(), spec.N, spec.Seed, err)
	}
	return c.Summarize(), nil
}

// AlgorithmEntry pairs an algorithm with the closed-form costs the paper's
// Table 1 quotes for it.
type AlgorithmEntry struct {
	Algorithm   mutex.Algorithm
	TheoryMsgs  string
	TheoryDelay string
}

// Algorithms returns the Table 1 lineup: the proposed algorithm plus the
// six baselines, each annotated with the paper's theoretical costs.
func Algorithms() []AlgorithmEntry {
	return []AlgorithmEntry{
		{lamport.Algorithm{}, "3(N-1)", "T"},
		{ricartagrawala.Algorithm{}, "2(N-1)", "T"},
		{singhal.Algorithm{}, "N-1 .. 2(N-1)", "T"},
		{core.Algorithm{Handoff: core.ViaArbiter}, "3..5(K-1), K=sqrt(N)", "2T"},
		{suzukikasami.Algorithm{}, "0..N", "T"},
		{raymond.Algorithm{}, "O(log N)", "O(log N)"},
		{core.Algorithm{}, "3..6(K-1), K=sqrt(N)", "T"},
	}
}
