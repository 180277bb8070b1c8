package core

import (
	"fmt"

	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
)

// Handoff says how an arbiter's permission reaches the next requester when
// the holder leaves the critical section. It is the one decision that
// separates the paper's protocol from Maekawa's; the two middle values are
// the ablations the evaluation measures.
type Handoff uint8

const (
	// Transfer is the paper's protocol (§3), and the zero value: the arbiter
	// tells the holder whom to forward to, the exiting holder sends that
	// reply itself (delay T), a transfer that outruns its proxied reply is
	// parked for replay, and inquire rides on transfer, transfer on reply.
	Transfer Handoff = iota
	// LiteralTransfer drops a transfer that arrives before its proxied
	// reply, exactly as the paper's step A.5 prescribes, instead of parking
	// it. Safety and liveness are unaffected (the release fallback heals the
	// lost handoff), but some handovers cost 2T instead of T.
	LiteralTransfer
	// StandaloneTransfer sends inquire and transfer as messages of their own
	// instead of riding on transfer and reply. Behaviour is unchanged; the
	// per-CS message count rises by what §5's piggybacking accounting saves.
	StandaloneTransfer
	// ViaArbiter is Maekawa's algorithm: step C's forwarding is off. Arbiters
	// never tell the holder about waiting requests, so every handover takes
	// the release → reply round trip through the arbiter (delay 2T).
	// Inquire/fail/yield, §6 recovery and reconfiguration are the same
	// machine's and run unchanged.
	ViaArbiter
)

// Algorithm builds protocol sites over a pluggable quorum construction (the
// protocol is independent of the quorum being used, §3). The zero value is
// the delay-optimal protocol over Maekawa grid quorums with fault tolerance
// enabled.
type Algorithm struct {
	// Construction supplies the coterie; nil defaults to the Maekawa grid.
	Construction coterie.Construction
	// DisableRecovery turns off the §6 failure recovery, leaving a pure
	// failure-free protocol (crashed quorum members then block requesters,
	// which is the honest semantics of a non-fault-tolerant coterie).
	DisableRecovery bool
	// Handoff selects the hand-off path; the zero value is the paper's.
	Handoff Handoff
}

var _ mutex.Algorithm = Algorithm{}

// Name implements mutex.Algorithm.
func (a Algorithm) Name() string {
	if a.Handoff == ViaArbiter {
		return "maekawa(" + a.construction().Name() + ")"
	}
	return "delay-optimal(" + a.construction().Name() + ")"
}

func (a Algorithm) construction() coterie.Construction {
	if a.Construction == nil {
		return coterie.Grid{}
	}
	return a.Construction
}

// NewSites implements mutex.Algorithm.
func (a Algorithm) NewSites(n int) ([]mutex.Site, error) {
	assign, err := a.Assign(n)
	if err != nil {
		return nil, err
	}
	recoveryCons := a.construction()
	if a.DisableRecovery {
		recoveryCons = nil
	}
	sites := make([]mutex.Site, n)
	for i := 0; i < n; i++ {
		site := newSite(mutex.SiteID(i), n, assign.Quorum(mutex.SiteID(i)), recoveryCons)
		site.handoff = a.Handoff
		sites[i] = site
	}
	return sites, nil
}

// Assign makes and validates the coterie of n sites: the part of NewSites
// that all sites share. A host that runs one site of many builds its
// machine with NewSite over it, once per protocol instance, instead of
// building every site's.
func (a Algorithm) Assign(n int) (*coterie.Assignment, error) {
	assign, err := a.construction().Assign(n)
	if err != nil {
		return nil, fmt.Errorf("core: assign quorums: %w", err)
	}
	if err := assign.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid coterie: %w", err)
	}
	return assign, nil
}

// NewSite builds site id's machine alone over an assignment from Assign. It
// must equal NewSites(assign.N)[id] — the same quorum, hand-off and recovery
// construction — which stays the reference it is tested against
// (TestNewSiteAloneMatchesNewSites).
func (a Algorithm) NewSite(id mutex.SiteID, assign *coterie.Assignment) *Site {
	cons := a.construction()
	if a.DisableRecovery {
		cons = nil
	}
	site := newSite(id, assign.N, assign.Quorum(id), cons)
	site.handoff = a.Handoff
	return site
}
