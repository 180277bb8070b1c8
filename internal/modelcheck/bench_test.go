package modelcheck_test

import (
	"runtime"
	"testing"

	"dqmx/internal/coterie"
	"dqmx/internal/modelcheck"
)

// BenchmarkExplore measures the explorer itself on majority-3+crash, the
// crash-recovery space of `make modelcheck`: distinct states explored per
// second of wall time, and heap bytes allocated per state (clones, keys, the
// visited set and the frontier together).
func BenchmarkExplore(b *testing.B) {
	cfg := checked(b, coterie.Majority{}, 3)
	cfg.Crashes = 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	states := 0
	for i := 0; i < b.N; i++ {
		res, err := modelcheck.Run(cfg)
		if err != nil || res.Violation != nil {
			b.Fatalf("explore: %v %v", err, res.Violation)
		}
		states += res.States
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(states), "B/state")
}
