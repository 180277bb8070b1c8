// Package workload provides the critical-section request generators used by
// the paper's experiments: sequential (light load, no contention), saturated
// closed-loop (heavy load), and Poisson closed-loop (the light→heavy sweep).
package workload

import (
	"math/rand"

	"dqmx/internal/mutex"
	"dqmx/internal/sim"
)

// Sequential drives light load: sites issue requests one at a time in
// round-robin order with a gap long enough that a request completes before
// the next is issued, so there is never contention (§5.1). It schedules
// total requests.
func Sequential(c *sim.Cluster, total int, gap sim.Time) {
	n := c.N()
	for k := 0; k < total; k++ {
		c.RequestAt(sim.Time(k)*gap, mutex.SiteID(k%n))
	}
}

// Saturated drives heavy load: every site requests at time 0 and re-requests
// immediately after each exit until it has completed perSite executions
// (§5.2). Under this load a waiting site has collected every reply except
// the one held by the site in the CS, which is exactly the regime where the
// synchronization delay dominates.
func Saturated(c *sim.Cluster, perSite int) {
	remaining := make([]int, c.N())
	for i := range remaining {
		remaining[i] = perSite - 1
		c.RequestAt(0, mutex.SiteID(i))
	}
	prev := c.OnExit
	c.OnExit = func(c *sim.Cluster, s mutex.SiteID) {
		if prev != nil {
			prev(c, s)
		}
		if remaining[s] > 0 {
			remaining[s]--
			c.RequestNow(s)
		}
	}
}

// ClosedPoisson drives a closed-loop think-time workload: after each exit a
// site waits an exponentially distributed think time with the given mean
// before its next request. Small means approach saturation; large means
// approach the uncontended light-load regime. Each site performs perSite
// executions. Each site's request callback is bound once, so a think time
// schedules no new closure.
func ClosedPoisson(c *sim.Cluster, meanThink sim.Time, perSite int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	think := func() sim.Time {
		d := sim.Time(rng.ExpFloat64() * float64(meanThink))
		if d < 1 {
			d = 1
		}
		return d
	}
	remaining := make([]int, c.N())
	request := make([]func(), c.N())
	for i := range remaining {
		s := mutex.SiteID(i)
		remaining[i] = perSite - 1
		request[i] = func() { c.RequestNow(s) }
		c.RequestAt(think(), s)
	}
	prev := c.OnExit
	c.OnExit = func(c *sim.Cluster, s mutex.SiteID) {
		if prev != nil {
			prev(c, s)
		}
		if remaining[s] > 0 {
			remaining[s]--
			c.Kernel.After(think(), request[s])
		}
	}
}
