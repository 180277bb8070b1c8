//go:build !goexperiment.synctest

package dqmx_test

import (
	"testing"
	"time"

	"dqmx"
)

// liveT is the chaos plan's per-hop delay T. A host-clock hand-off also pays
// a fixed cost of wake-ups and protocol work, which would swamp a 1 ms T; at
// 2 ms the two hops of Maekawa's still stand clear. The race detector
// multiplies that cost, so a -race build doubles T (raceTScale).
const liveT = raceTScale * 2 * time.Millisecond

// inBubble runs f on the host clock.
func inBubble(f func()) { f() }

// checkSyncDelay asserts the shape the host clock can show through its
// scheduling noise: at each N, Maekawa's median hand-off is at least 1.3×
// the delay-optimal one (2 T against T on a noiseless clock).
func checkSyncDelay(t *testing.T, rows []liveRow) {
	t.Helper()
	p50 := make(map[int]map[dqmx.Protocol]float64)
	for _, r := range rows {
		if p50[r.n] == nil {
			p50[r.n] = make(map[dqmx.Protocol]float64)
		}
		p50[r.n][r.protocol] = r.p50
	}
	for n, by := range p50 {
		if ratio := by[dqmx.Maekawa] / by[dqmx.DelayOptimal]; ratio < 1.3 {
			t.Errorf("N=%d: maekawa/delay-optimal hand-off p50 = %.2f, want >= 1.3", n, ratio)
		}
	}
}
