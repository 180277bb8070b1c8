package harness

import (
	"fmt"
	"math"

	"dqmx/internal/sim"
)

// Aggregate holds the cross-seed statistics of one metric.
type Aggregate struct {
	Mean float64
	Std  float64
	// CI95 is the half-width of the 95% confidence interval of the mean
	// (normal approximation).
	CI95 float64
	Runs int
}

// aggregate computes the mean, the sample standard deviation and the 95%
// confidence half-width of xs. A single run has no spread: its Std and CI95
// are 0. The mean is a running mean, not sum/n: evaluation.txt was made with
// it, and one multi-seed cell is a tie at three decimals (suzuki-kasami's
// msgs/CS, exactly 24.5375) that the running mean prints as 24.537 and
// sum/n as 24.538.
func aggregate(xs []float64) Aggregate {
	a := Aggregate{Runs: len(xs)}
	for i, x := range xs {
		a.Mean += (x - a.Mean) / float64(i+1)
	}
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			ss += (x - a.Mean) * (x - a.Mean)
		}
		a.Std = math.Sqrt(ss / float64(len(xs)-1))
		a.CI95 = 1.96 * a.Std / math.Sqrt(float64(len(xs)))
	}
	return a
}

// String renders "mean ± ci".
func (a Aggregate) String() string {
	return fmt.Sprintf("%.3f ± %.3f", a.Mean, a.CI95)
}

// MultiSeedRow carries cross-seed aggregates of the headline metrics for one
// algorithm.
type MultiSeedRow struct {
	Algorithm  string
	MsgsPerCS  Aggregate
	SyncDelayT Aggregate
	Throughput Aggregate
}

// RunMany executes the heavy-load comparison across `seeds` independent
// seeds per algorithm under exponentially distributed delays (constant
// delays are seed-independent) and reports mean ± 95% CI for each headline
// metric — the statistically robust version of Table 1's measured columns.
func RunMany(n, perSite, seeds int) ([]MultiSeedRow, error) {
	rows := make([]MultiSeedRow, 0, 8)
	for _, e := range Algorithms() {
		var msgs, sync, tput []float64
		for seed := int64(1); seed <= int64(seeds); seed++ {
			res, err := Run(Spec{
				N: n, Algorithm: e.Algorithm, Load: Heavy, PerSite: perSite, Seed: seed,
				Delay: sim.ExponentialDelay{MeanD: DefaultDelay},
			})
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", e.Algorithm.Name(), seed, err)
			}
			msgs = append(msgs, res.MessagesPerCS)
			sync = append(sync, res.SyncDelay)
			tput = append(tput, res.Throughput)
		}
		rows = append(rows, MultiSeedRow{
			Algorithm:  e.Algorithm.Name(),
			MsgsPerCS:  aggregate(msgs),
			SyncDelayT: aggregate(sync),
			Throughput: aggregate(tput),
		})
	}
	return rows, nil
}
