package core

import (
	"slices"

	"dqmx/internal/wire"
)

// Model-checking seams. internal/modelcheck branches protocol executions by
// copying sites and prunes the search by memoizing a byte key of each state;
// both hooks live here, next to the state they must cover.
// TestCanonicalCoversEveryField fails when a field of the Site or of either
// half is neither encoded by AppendCanonical nor excluded with a reason, and
// on any map-typed field.

// CloneForCheck copies the site so an explorer can branch the execution. The
// copy shares nothing mutable with the original: every field of the site and
// its halves is a value or never edited (the construction, the membership
// closure, the quorums, which the machine replaces whole) except the sets and
// slices below. The send buffer is scratch; the copy starts without it.
func (s *Site) CloneForCheck() *Site {
	c := *s
	c.failedSites = s.failedSites.clone()
	c.req.replied = s.req.replied.clone()
	c.req.inqDeferred = s.req.inqDeferred.clone()
	c.req.tranStack = slices.Clone(s.req.tranStack)
	c.req.pendTransfers = slices.Clone(s.req.pendTransfers)
	c.arb.queue.items = slices.Clone(s.arb.queue.items)
	c.arb.refreshDead = slices.Clone(s.arb.refreshDead)
	c.arb.earlyReleases = slices.Clone(s.arb.earlyReleases)
	c.sendBuf = nil
	return &c
}

// AppendCanonical appends a fixed binary encoding of every behaviour-relevant
// field of the site to b. Two sites with equal encodings react identically to
// identical future inputs: the encoding covers the site's shared state (the
// known-failed sites, the online membership's system size and stage tag, and
// the Lamport clock — omitting the clock would merge states that issue
// differently prioritized future requests), the whole requester half
// (including the deferred replacement quorum and parked transfers and
// inquires) and the whole arbiter half (including refresh claims and
// buffered early releases). Statistics, construction-time configuration and
// scratch are excluded. Every variable-length part is counted, so the
// encoding of one site never runs into the next.
func (s *Site) AppendCanonical(b []byte) []byte {
	b = wire.AppendSite(b, s.id)
	b = wire.AppendUint(b, uint64(s.n))
	b = wire.AppendUint(b, s.clock.Now())
	b = s.failedSites.appendCanonical(b)
	b = wire.AppendUint(b, s.memberStage)

	r := &s.req
	b = appendAll(b, r.quorum, wire.AppendSite)
	b = wire.AppendBool(b, r.nextQuorum != nil)
	b = appendAll(b, r.nextQuorum, wire.AppendSite)
	b = append(b, byte(r.state))
	b = wire.AppendTimestamp(b, r.reqTS)
	b = r.replied.appendCanonical(b)
	b = wire.AppendBool(b, r.failed)
	b = r.inqDeferred.appendCanonical(b)
	b = appendAll(b, r.tranStack, appendTransfer)
	b = appendAll(b, r.pendTransfers, appendTransfer)

	a := &s.arb
	b = wire.AppendTimestamp(b, a.lock)
	b = appendAll(b, a.queue.items, wire.AppendTimestamp)
	b = wire.AppendBool(b, a.inquired)
	b = wire.AppendTimestamp(b, a.lastTransfer)
	b = wire.AppendSite(b, a.lockVia)
	b = appendAll(b, a.refreshDead, func(b []byte, c refreshClaim) []byte {
		return wire.AppendSite(wire.AppendTimestamp(b, c.TS), c.Dead)
	})
	return appendAll(b, a.earlyReleases, func(b []byte, r releaseMsg) []byte {
		b = wire.AppendTimestamp(b, r.ReqTS)
		b = wire.AppendSite(b, r.Fwd)
		b = wire.AppendTimestamp(b, r.FwdTS)
		return wire.AppendBool(b, r.Withdraw)
	})
}

// appendAll appends a counted list, each element by enc.
func appendAll[E any](b []byte, xs []E, enc func([]byte, E) []byte) []byte {
	b = wire.AppendUint(b, uint64(len(xs)))
	for _, x := range xs {
		b = enc(b, x)
	}
	return b
}

func appendTransfer(b []byte, t transferInfo) []byte {
	return wire.AppendTimestamp(wire.AppendSite(b, t.Arbiter), t.TargetTS)
}
