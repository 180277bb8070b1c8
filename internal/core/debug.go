package core

import (
	"fmt"
	"slices"

	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
)

// HoldsPermissionOf reports whether the site currently counts arb's
// permission toward its entry condition (replied[arb] = 1). Used by the
// permission-exclusivity invariant checker in tests.
func (s *Site) HoldsPermissionOf(arb mutex.SiteID) bool { return s.req.replied.has(arb) }

// RequestTimestamp implements mutex.TimestampedSite: the timestamp of the
// in-flight request, valid while the site is not idle.
func (s *Site) RequestTimestamp() (timestamp.Timestamp, bool) {
	return s.req.reqTS, s.req.state != stateIdle
}

// DebugString renders the site's full protocol state; it is the per-site
// dump drivers pick up for liveness diagnostics.
func (s *Site) DebugString() string {
	return fmt.Sprintf("site %d: %s", s.id, DebugState(s))
}

// DebugState renders a site's full protocol state for diagnostics and test
// failure reports: the requester half, then the arbiter half. It accepts a
// mutex.Site so drivers can call it without knowing the concrete type;
// non-core sites yield a short placeholder.
func DebugState(ms mutex.Site) string {
	s, ok := ms.(*Site)
	if !ok {
		return fmt.Sprintf("site %d: (not a core site)", ms.ID())
	}
	r, a := &s.req, &s.arb
	via := ""
	if a.lockVia != timestamp.None {
		via = fmt.Sprintf(" via=%d", a.lockVia)
	}
	return fmt.Sprintf(
		"%v req=%v failed=%v replied=%v quorum=%v inqDef=%v stack=%v | lock=%v%s queue=%v inquired=%v lastTr=%v",
		r.state, r.reqTS, r.failed, slices.Collect(r.replied.all()), r.quorum,
		slices.Collect(r.inqDeferred.all()), r.tranStack,
		a.lock, via, a.queue.items, a.inquired, a.lastTransfer)
}
