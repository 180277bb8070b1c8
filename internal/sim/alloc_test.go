//go:build !race

package sim_test

import (
	"runtime"
	"testing"
	"unsafe"

	"dqmx/internal/core"
	"dqmx/internal/coterie"
	"dqmx/internal/sim"
	"dqmx/internal/workload"
)

// TestAllocsSimCS pins what one simulated critical section allocates on the
// saturated 9-site grid, counted process-wide over 10 000 CS after a warm-up:
// the record log's 32 KB chunks, one per about 5 000 CS at a varint entry of
// about 6 bytes each, and nothing else. Exit callbacks are bound per site,
// per-site and per-channel state is in slices, and the kernel's event heap
// and envelope slab have reached their high-water size, so the chunks are
// about 3 B per CS and 0.0002 allocations. A closure per CS would cost one
// allocation each; a 24-byte record per CS, 24 B. It then pins Summarize on
// the 12 000 completed CS below 1 B each: the percentiles keep about one
// value in a hundred, where a sorted copy would cost 8 B per CS.
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
	const allocBudget, byteBudget = 0.01, 8
	if allocs > allocBudget {
		t.Errorf("%.4f allocs per CS, budget %v", allocs, allocBudget)
	}
	if bytes > byteBudget {
		t.Errorf("%.1f B per CS, budget %v", bytes, byteBudget)
	}

	runtime.ReadMemStats(&before)
	c.Summarize()
	runtime.ReadMemStats(&after)
	summary := float64(after.TotalAlloc-before.TotalAlloc) / float64(c.Completed())
	t.Logf("Summarize: %.2f B per completed CS over %d", summary, c.Completed())
	if summary >= 1 {
		t.Errorf("Summarize allocated %.2f B per completed CS, budget below 1", summary)
	}
}

// TestAllocsSimRecords pins the size of a CS record, {Site, Requested,
// Entered} with the exit derived from Entered and CSTime, at 24 bytes, and
// what Records() costs: one slice of one record per completed CS, 24 B each.
// The run completes 9 216 CS, so the slice is a whole number of pages and no
// rounding hides a byte. Not under -race: the detector allocates on its own
// account.
func TestAllocsSimRecords(t *testing.T) {
	if got := unsafe.Sizeof(sim.CSRecord{}); got != 24 {
		t.Errorf("a CSRecord is %d bytes, want 24", got)
	}
	c, err := sim.NewCluster(sim.Config{
		N: 9, Algorithm: core.Algorithm{Construction: coterie.Grid{}},
		Delay: sim.ConstantDelay{D: 1000}, Seed: 1, CSTime: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	workload.Saturated(c, 1024)
	c.Run(0)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	n := c.Completed()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recs := c.Records()
	runtime.ReadMemStats(&after)
	if len(recs) != n {
		t.Fatalf("%d records for %d completed CS", len(recs), n)
	}
	allocs := after.Mallocs - before.Mallocs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("Records(): %d allocations, %.2f B per completed CS over %d", allocs, bytes, n)
	if allocs != 1 {
		t.Errorf("Records() made %d allocations, want 1", allocs)
	}
	if bytes > 24 {
		t.Errorf("Records() allocated %.2f B per completed CS, want at most 24", bytes)
	}
}
