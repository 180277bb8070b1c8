package core

import (
	"slices"

	"dqmx/internal/wire"
)

// Model-checking seams. internal/modelcheck branches protocol executions by
// copying sites and prunes the search by memoizing a byte key of each state;
// both hooks live here, next to the state they must cover.
// TestCanonicalCoversEveryField fails when a Site field is neither encoded by
// AppendCanonical nor excluded with a reason, and on any map-typed field.

// CloneForCheck copies the site so an explorer can branch the execution. The
// copy shares nothing mutable with the original: every field is a value or
// never edited (the construction, the membership closure, the quorums, which
// the machine replaces whole) except the slices below, which it edits in
// place. The send buffer is scratch, not state; the copy starts without it.
func (s *Site) CloneForCheck() *Site {
	c := *s
	c.failedSites = s.failedSites.clone()
	c.replied = s.replied.clone()
	c.inqDeferred = s.inqDeferred.clone()
	c.tranStack = slices.Clone(s.tranStack)
	c.pendTransfers = slices.Clone(s.pendTransfers)
	c.queue.items = slices.Clone(s.queue.items)
	c.refreshDead = slices.Clone(s.refreshDead)
	c.earlyReleases = slices.Clone(s.earlyReleases)
	c.sendBuf = nil
	return &c
}

// AppendCanonical appends a fixed binary encoding of every behaviour-relevant
// field of the site to b. Two sites with equal encodings react identically to
// identical future inputs: the encoding covers the whole requester half
// (including parked transfers and inquires), the whole arbiter half
// (including buffered early releases), the §6 recovery state (known-failed
// sites, refresh claims, the deferred replacement quorum), the online
// membership (system size and stage tag), and the Lamport clock — omitting
// the clock would merge states that issue differently prioritized future
// requests. Statistics, construction-time configuration and scratch are
// excluded. Every variable-length part is counted, so the encoding of one
// site never runs into the next.
func (s *Site) AppendCanonical(b []byte) []byte {
	b = wire.AppendSite(b, s.id)
	b = wire.AppendUint(b, uint64(s.n))
	b = wire.AppendUint(b, s.clock.Now())
	b = appendAll(b, s.quorum, wire.AppendSite)
	b = wire.AppendBool(b, s.nextQuorum != nil)
	b = appendAll(b, s.nextQuorum, wire.AppendSite)
	b = s.failedSites.appendCanonical(b)
	b = wire.AppendUint(b, s.memberStage)

	b = append(b, byte(s.state))
	b = wire.AppendTimestamp(b, s.reqTS)
	b = s.replied.appendCanonical(b)
	b = wire.AppendBool(b, s.failed)
	b = s.inqDeferred.appendCanonical(b)
	b = appendAll(b, s.tranStack, appendTransfer)
	b = appendAll(b, s.pendTransfers, appendTransfer)

	b = wire.AppendTimestamp(b, s.lock)
	b = appendAll(b, s.queue.items, wire.AppendTimestamp)
	b = wire.AppendBool(b, s.inquired)
	b = wire.AppendTimestamp(b, s.lastTransfer)
	b = wire.AppendSite(b, s.lockVia)
	b = appendAll(b, s.refreshDead, func(b []byte, c refreshClaim) []byte {
		return wire.AppendSite(wire.AppendTimestamp(b, c.TS), c.Dead)
	})
	return appendAll(b, s.earlyReleases, func(b []byte, r releaseMsg) []byte {
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
