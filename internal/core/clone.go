package core

import (
	"dqmx/internal/timestamp"

	"dqmx/internal/mutex"
)

// clone deep-copies the site's protocol state. Used by the exhaustive
// model checker to branch executions; the clock is copied by value (it is a
// small struct behind a pointer). memberStage copies with the struct;
// memberAvoid is intentionally shared — it is an immutable closure over the
// handover plan, not mutable state. The scratch buffers are not state and
// must not be shared: the copy starts without them.
func (s *Site) clone() *Site {
	c := *s
	c.sendBuf, c.served, c.parkFree = nil, nil, nil
	clk := *s.clock
	c.clock = &clk
	c.quorum = s.quorum.Clone()
	if s.nextQuorum != nil {
		c.nextQuorum = s.nextQuorum.Clone()
	}
	c.failedSites = cloneSet(s.failedSites)
	c.replied = cloneSet(s.replied)
	c.inqDeferred = cloneSet(s.inqDeferred)
	c.tranStack = append([]transferInfo(nil), s.tranStack...)
	if s.pendTransfers != nil {
		c.pendTransfers = make(map[mutex.SiteID][]transferInfo, len(s.pendTransfers))
		for k, v := range s.pendTransfers {
			c.pendTransfers[k] = append([]transferInfo(nil), v...)
		}
	}
	c.queue = tsQueue{items: append([]timestamp.Timestamp(nil), s.queue.items...)}
	c.earlyReleases = make(map[timestamp.Timestamp]releaseMsg, len(s.earlyReleases))
	for k, v := range s.earlyReleases {
		c.earlyReleases[k] = v
	}
	if s.refreshDead != nil {
		c.refreshDead = make(map[timestamp.Timestamp]map[mutex.SiteID]bool, len(s.refreshDead))
		for k, v := range s.refreshDead {
			c.refreshDead[k] = cloneSet(v)
		}
	}
	return &c
}

func cloneSet(m map[mutex.SiteID]bool) map[mutex.SiteID]bool {
	if m == nil {
		return nil
	}
	out := make(map[mutex.SiteID]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
