//go:build !race

package sim_test

import (
	"runtime"
	"testing"

	"dqmx/internal/core"
	"dqmx/internal/coterie"
	"dqmx/internal/sim"
	"dqmx/internal/workload"
)

// TestAllocsSimCS pins what one simulated critical section allocates on the
// saturated 9-site grid, counted process-wide over 10 000 CS after a warm-up:
// the record store's 32 KB chunks, one per 1 024 CS, and nothing else. Exit
// callbacks are bound per site, per-site and per-channel state is in slices,
// and the kernel's event heap and envelope slab have reached their
// high-water size, so the chunks are 32 B per CS and about 0.001
// allocations. A closure per CS would cost one allocation each; a record
// slice grown by append, about 160 B.
// Not under -race: the detector allocates on its own account.
func TestAllocsSimCS(t *testing.T) {
	const warm, measured = 2_000, 10_000
	c, err := sim.NewCluster(sim.Config{
		N: 9, Algorithm: core.Algorithm{Construction: coterie.Grid{}},
		Delay: sim.ConstantDelay{D: 1000}, Seed: 1, CSTime: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	workload.Saturated(c, 2*(warm+measured)/9)
	runTo := func(cs int) {
		for c.Completed() < cs && c.Kernel.Step() {
		}
		if c.Completed() < cs {
			t.Fatalf("the run drained after %d CS", c.Completed())
		}
	}
	runTo(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runTo(warm + measured)
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / measured
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / measured
	t.Logf("%.4f allocs and %.1f B per simulated CS (N=9 grid, saturated)", allocs, bytes)
	const allocBudget, byteBudget = 0.01, 40
	if allocs > allocBudget {
		t.Errorf("%.4f allocs per CS, budget %v", allocs, allocBudget)
	}
	if bytes > byteBudget {
		t.Errorf("%.1f B per CS, budget %v", bytes, byteBudget)
	}
}
