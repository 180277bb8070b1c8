package core_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"dqmx/internal/core"
	"dqmx/internal/coterie"
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

// TestDebugStateGolden pins the text of core.DebugState, which model-checker
// counterexamples and the live runtime's DumpState print: every site's dump
// at six points of a seeded saturated run over grid-9 and over tree-7. The
// delays are exponential and the CS time close to them, so the points catch
// sites in the CS, parked inquires, inquiring arbiters, transfer stacks and
// proxied locks. A change to the site's layout must leave it byte-identical; a
// deliberate change to the dump replaces testdata/debugstate.golden with the
// text the failing test prints.
func TestDebugStateGolden(t *testing.T) {
	var b strings.Builder
	for _, run := range []struct {
		name string
		n    int
		cons coterie.Construction
	}{
		{"grid-9", 9, coterie.Grid{}},
		{"tree-7", 7, coterie.Tree{}},
	} {
		c, err := sim.NewCluster(sim.Config{
			N: run.n, Algorithm: core.Algorithm{Construction: run.cons},
			Delay: sim.ExponentialDelay{MeanD: 1000}, Seed: 1, CSTime: 700,
		})
		if err != nil {
			t.Fatal(err)
		}
		workload.Saturated(c, 20)
		for _, steps := range []uint64{40, 20, 20, 20, 400, 1000} {
			c.Run(steps)
			fmt.Fprintf(&b, "%s after %d more steps:\n", run.name, steps)
			for _, s := range c.Sites {
				fmt.Fprintf(&b, "  %s\n", s.(*core.Site).DebugString())
			}
		}
		c.Run(0)
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
	}
	const golden = "testdata/debugstate.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("DebugState differs from %s:\n%s", golden, got)
	}
}
