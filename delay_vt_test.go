//go:build goexperiment.synctest

package dqmx_test

import (
	"math"
	"testing"
	"testing/synctest"
	"time"

	"dqmx"
)

// liveT is the chaos plan's per-hop delay T. A bubble's hop costs exactly
// T, whatever T is; 1 ms is the T of E14's table.
const liveT = time.Millisecond

// inBubble runs f in a synctest bubble: its goroutines, timers and sleeps
// run on a virtual clock that jumps to the next timer once every goroutine
// in the bubble waits, so a chaos hop of T takes exactly T.
func inBubble(f func()) { synctest.Run(f) }

// checkSyncDelay holds each live figure to the simulator's: delay-optimal
// within 2% of the simulated mean at the same N, Maekawa at exactly 2 T.
func checkSyncDelay(t *testing.T, rows []liveRow) {
	t.Helper()
	for _, r := range rows {
		if r.protocol == dqmx.Maekawa && r.mean != 2 {
			t.Errorf("N=%d maekawa: %.4f T, want exactly 2 T", r.n, r.mean)
		}
		if math.Abs(r.gap()) > 0.02 {
			t.Errorf("N=%d %s: live %.3f T is %+.1f%% off the simulator's %.3f T, want within 2%%",
				r.n, r.protocol, r.mean, 100*r.gap(), r.sim)
		}
	}
}
