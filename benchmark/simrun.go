package main

import (
	"fmt"
	"time"

	"dqmx/internal/core"
	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
	"dqmx/internal/sim"
	simload "dqmx/internal/workload"
)

// simT is the constant message delay of every simulation, in virtual ticks:
// the paper's T.
const simT = sim.Time(1000)

// simCSTime is the critical-section execution time E, in virtual ticks.
const simCSTime = sim.Time(10)

// simCrash stops a site at a virtual instant, in units of T.
type simCrash struct {
	atT  float64
	site int
}

// simDetect is the failure-detection latency: the simulator's default of
// five mean delays, named here because recovery_gap_T subtracts it.
const simDetect = 5 * simT

// simSpec is one simulated deployment and its load: every site saturated
// for perSite critical sections. A live workload's spec names its coterie
// only.
type simSpec struct {
	n       int
	cons    coterie.Construction
	perSite int
	crashes []simCrash
}

// simOutcome is what one simulation measured. Everything but wall, cpu, ctx
// and mem is a function of the spec and the seed alone.
type simOutcome struct {
	completed    int
	msgsPerCS    float64
	byKind       map[string]uint64
	syncDelayT   float64 // mean exit → next entry with a waiter present, in T
	recoveryGapT float64 // longest crash → next entry, less the detect delay, in T
	quorumSize   int     // K of site 0's quorum
	events       uint64  // kernel events executed
	err          error   // safety violation or starvation

	wall time.Duration // Run's wall-clock duration
	cpu  time.Duration // process CPU over Run
	ctx  int64         // context switches over Run
	mem  memDelta
}

// runSim builds the cluster through sim.NewCluster and runs it to
// quiescence. onFirstCS, if set, is called as the first CS completes.
func runSim(spec simSpec, seed int64, onFirstCS func()) (simOutcome, error) {
	var out simOutcome
	k, _, err := quorumSize(spec)
	if err != nil {
		return out, err
	}
	out.quorumSize = k

	c, err := sim.NewCluster(sim.Config{
		N:           spec.n,
		Algorithm:   core.Algorithm{Construction: spec.cons},
		Delay:       sim.ConstantDelay{D: simT},
		Seed:        seed,
		CSTime:      simCSTime,
		DetectDelay: simDetect,
	})
	if err != nil {
		return out, err
	}
	c.OnExit = func(*sim.Cluster, mutex.SiteID) {
		if onFirstCS != nil {
			onFirstCS()
			onFirstCS = nil
		}
	}
	simload.Saturated(c, spec.perSite)
	for _, cr := range spec.crashes {
		c.CrashAt(sim.Time(cr.atT*float64(simT)), mutex.SiteID(cr.site))
	}

	ru0, mem0 := readRusage(), readMem()
	begin := time.Now()
	c.Run(0)
	out.wall = time.Since(begin)
	ru1, mem1 := readRusage(), readMem()
	out.cpu = ru1.cpu - ru0.cpu
	out.ctx = ru1.ctxSwitches - ru0.ctxSwitches
	out.mem = mem1.sub(mem0)

	out.err = c.Err()
	out.completed = c.Completed()
	out.events = c.Kernel.Steps()
	sum := c.Summarize()
	out.byKind = sum.ByKind
	out.msgsPerCS = sum.MessagesPerCS
	out.syncDelayT = sum.SyncDelay
	out.recoveryGapT = recoveryGap(c.Records(), spec.crashes)
	return out, nil
}

// quorumSize returns K, the size of site 0's quorum under the spec's
// coterie, and whether every site's quorum has that size.
func quorumSize(spec simSpec) (k int, uniform bool, err error) {
	assign, err := spec.cons.Assign(spec.n)
	if err != nil {
		return 0, false, fmt.Errorf("assign quorums: %w", err)
	}
	k = len(assign.Quorum(0))
	return k, assign.MaxQuorumSize() == k && assign.AvgQuorumSize() == float64(k), nil
}

// recoveryGap is, over the crashes, the longest time from the crash instant
// to the next CS entry, less the detect delay, in units of T: how long the
// section-6 recovery keeps a saturated lock idle once the failure is known.
func recoveryGap(recs []sim.CSRecord, crashes []simCrash) float64 {
	var worst float64
	for i, cr := range crashes {
		at := sim.Time(cr.atT * float64(simT))
		for _, r := range recs {
			if r.Entered >= at {
				if gap := float64(r.Entered-at-simDetect) / float64(simT); i == 0 || gap > worst {
					worst = gap
				}
				break
			}
		}
	}
	return worst
}
