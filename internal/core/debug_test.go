package core_test

import (
	"fmt"
	"testing"

	"dqmx/internal/core"
	"dqmx/internal/mutex"
	"dqmx/internal/sim"
	"dqmx/internal/workload"
)

// TestEarlyReleaseRegression replays the exact configuration (N=13,
// exponential delays, seed 1) that once wedged arbiter 1 on a stale lock:
// the next holder acquired, executed, and released via a proxied grant
// before the forwarding release reached the arbiter. The early-release
// buffer fixed it; this test pins the scenario and dumps full per-site state
// plus a message trace on any recurrence.
func TestEarlyReleaseRegression(t *testing.T) {
	alg := core.Algorithm{}
	c, err := sim.NewCluster(sim.Config{N: 13, Algorithm: alg, Delay: sim.ExponentialDelay{MeanD: 1000}, Seed: 1, CSTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	var trace []string
	c.Net.Trace = func(at sim.Time, env mutex.Envelope) {
		if env.From == 1 || env.To == 1 {
			trace = append(trace, fmt.Sprintf("t=%-8d %d->%d %s", at, env.From, env.To, env.PayloadString()))
		}
	}
	workload.Saturated(c, 4)
	c.Run(0)
	if err := c.Err(); err != nil {
		t.Logf("run error: %v (completed %d/%d)", err, c.Completed(), c.Issued())
		for i, s := range c.Sites {
			t.Logf("site %d: %s", i, core.DebugState(s))
		}
		for _, line := range trace {
			t.Log(line)
		}
		t.Fail()
	}
}
