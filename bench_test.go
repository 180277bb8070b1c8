// Benchmarks regenerating the paper's evaluation: one benchmark per
// experiment in DESIGN.md's index (E1–E13 and E3b). Each reports the paper's
// quantities as custom benchmark metrics — msgs/CS, sync delay in units of
// T, throughput per T — so `go test -bench=. -benchmem` reproduces every
// table and series. cmd/benchtab prints the same data as formatted tables.
package dqmx_test

import (
	"fmt"
	"testing"

	"dqmx/internal/core"
	"dqmx/internal/harness"
	"dqmx/internal/sim"
)

// BenchmarkTable1PerAlgorithm is E1: Table 1 — message complexity and
// synchronization delay for all six algorithms at N=25.
func BenchmarkTable1PerAlgorithm(b *testing.B) {
	for _, e := range harness.Algorithms() {
		e := e
		b.Run(e.Algorithm.Name(), func(b *testing.B) {
			var last sim.Result
			for i := 0; i < b.N; i++ {
				res, err := harness.Run(harness.Spec{
					N: 25, Algorithm: e.Algorithm, Load: harness.Heavy, PerSite: 10, Seed: int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.MessagesPerCS, "msgs/CS")
			b.ReportMetric(last.SyncDelay, "syncT")
		})
	}
}

// BenchmarkLightLoadMessages is E2 (§5.1): exactly 3(K−1) messages per
// uncontended CS execution.
func BenchmarkLightLoadMessages(b *testing.B) {
	for _, n := range []int{9, 25, 49} {
		n := n
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var last sim.Result
			for i := 0; i < b.N; i++ {
				res, err := harness.Run(harness.Spec{
					N: n, Algorithm: core.Algorithm{}, Load: harness.Light, PerSite: 20, Seed: int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.MessagesPerCS, "msgs/CS")
			b.ReportMetric(last.ResponseTime, "responseT")
		})
	}
}

// BenchmarkHeavyLoadMessages is E3 (§5.2): messages per CS under saturation
// against the 5(K−1)..6(K−1) band.
func BenchmarkHeavyLoadMessages(b *testing.B) {
	for _, n := range []int{9, 25, 49} {
		n := n
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var last sim.Result
			for i := 0; i < b.N; i++ {
				res, err := harness.Run(harness.Spec{
					N: n, Algorithm: core.Algorithm{}, Load: harness.Heavy, PerSite: 10, Seed: int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.MessagesPerCS, "msgs/CS")
		})
	}
}

// BenchmarkSyncDelay is E4: the headline T vs 2T comparison at N=25.
func BenchmarkSyncDelay(b *testing.B) {
	algs := map[string]harness.Spec{
		"delay-optimal": {N: 25, Algorithm: core.Algorithm{}, Load: harness.Heavy, PerSite: 10},
		"maekawa":       {N: 25, Algorithm: core.Algorithm{Handoff: core.ViaArbiter}, Load: harness.Heavy, PerSite: 10},
	}
	for name, spec := range algs {
		spec := spec
		b.Run(name, func(b *testing.B) {
			var last sim.Result
			for i := 0; i < b.N; i++ {
				spec.Seed = int64(i + 1)
				res, err := harness.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.SyncDelay, "syncT")
		})
	}
}

// BenchmarkThroughputHeavyLoad is E5 (§5.2): throughput doubling and waiting
// halving at heavy load.
func BenchmarkThroughputHeavyLoad(b *testing.B) {
	rows := func(seed int64) []harness.ThroughputRow {
		r, err := harness.Throughput(25, []sim.Time{10, 200, 1000}, seed)
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	var last []harness.ThroughputRow
	for i := 0; i < b.N; i++ {
		last = rows(int64(i + 1))
	}
	for _, r := range last {
		b.ReportMetric(r.TputRatio, fmt.Sprintf("tputRatio@E=%d", int64(r.CSTime)))
	}
}

// BenchmarkQuorumSizes is E6 (§6/§5.3): K by construction and system size.
func BenchmarkQuorumSizes(b *testing.B) {
	var rows []harness.QuorumSizeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.QuorumSizes([]int{25, 81, 255, 729})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.N == 729 {
			b.ReportMetric(r.Avg, r.Construction+"@729")
		}
	}
}

// BenchmarkAvailability is E7 (§6): quorum availability under independent
// site failures.
func BenchmarkAvailability(b *testing.B) {
	var rows []harness.AvailabilityRow
	for i := 0; i < b.N; i++ {
		rows = harness.Availability(31, []float64{0.90}, 2000, int64(i+1))
	}
	for _, r := range rows {
		b.ReportMetric(r.Availability, r.Construction+"@p=0.9")
	}
}

// BenchmarkCrashRecovery is E8 (§6): progress and overhead across injected
// crashes with tree quorums.
func BenchmarkCrashRecovery(b *testing.B) {
	var row harness.CrashRecoveryRow
	for i := 0; i < b.N; i++ {
		var err error
		row, err = harness.CrashRecovery(15, 4, 2, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(row.Completed), "completedCS")
	b.ReportMetric(row.MsgsPerCS, "msgs/CS")
}

// BenchmarkLoadSweep is E9: message cost and delays from light to heavy
// load.
func BenchmarkLoadSweep(b *testing.B) {
	var rows []harness.LoadSweepRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.LoadSweep(16, []sim.Time{100, 1000, 10000, 100000}, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.MsgsPerCS, fmt.Sprintf("msgs@think=%d", int64(r.ThinkTime)))
	}
}

// BenchmarkQuorumIndependence is E10 (§3): the protocol unchanged over every
// coterie construction.
func BenchmarkQuorumIndependence(b *testing.B) {
	var rows []harness.IndependenceRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.QuorumIndependence(13, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.SyncDelay, r.Construction+"-syncT")
	}
}

// BenchmarkScalability is E13: messages track the quorum size (√N for grid,
// log N for tree) as the system grows, while the sync delay stays ≈ T.
func BenchmarkScalability(b *testing.B) {
	var rows []harness.ScalabilityRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.Scalability([]int{25, 81, 169}, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.MsgsPerCS, fmt.Sprintf("%s-msgs@N=%d", r.Construction, r.N))
	}
}

// BenchmarkDelaySensitivity is E12: the T-vs-2T shape under constant,
// uniform and exponential delays.
func BenchmarkDelaySensitivity(b *testing.B) {
	var rows []harness.DelaySensitivityRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.DelaySensitivity(25, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Ratio, r.Distribution+"-ratio")
	}
}

// BenchmarkLinkFailures is E11: progress across severed communication links.
func BenchmarkLinkFailures(b *testing.B) {
	var row harness.LinkFailureRow
	for i := 0; i < b.N; i++ {
		var err error
		row, err = harness.LinkFailures(15, 4, 2, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(row.Completed), "completedCS")
	b.ReportMetric(row.MsgsPerCS, "msgs/CS")
}

// BenchmarkCaseHistogram regenerates the §5.2 case frequency analysis.
func BenchmarkCaseHistogram(b *testing.B) {
	var hist harness.CaseHistogram
	for i := 0; i < b.N; i++ {
		var err error
		hist, err = harness.HeavyLoadCases(25, 10, int64(i+1), nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for i := 1; i <= 5; i++ {
		b.ReportMetric(float64(hist.Cases.Case[i]), fmt.Sprintf("case%d", i))
	}
}

// BenchmarkSimulatorEventThroughput measures the raw event kernel (not a
// paper experiment; it sizes the substrate itself).
func BenchmarkSimulatorEventThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var k sim.Kernel
		var count int
		var tick func()
		tick = func() {
			count++
			if count < 1000 {
				k.After(1, tick)
			}
		}
		k.After(0, tick)
		k.Run(0)
	}
}
