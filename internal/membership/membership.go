// Package membership implements online cluster reconfiguration for the
// quorum protocols: epoch-stamped configurations and the joint-quorum
// handover that moves a live cluster from coterie(E) to coterie(E+1)
// without ever losing mutual exclusion.
//
// The paper's safety argument rests entirely on pairwise quorum
// intersection, so a configuration change cannot simply swap one coterie
// for another: a critical-section entry granted under the old coterie and
// one granted under the new need not share an arbiter. Instead the switch
// passes through a joint phase, in the style of joint consensus: while the
// handover is in progress every site's req_set is the union of a quorum of
// coterie(E) and a quorum of coterie(E+1). Any two joint entries intersect
// (each embeds an old-coterie quorum), a joint entry intersects every
// pure-E entry (its embedded old quorum does), and it intersects every
// pure-(E+1) entry (its embedded new quorum does). Once every in-flight
// request has settled on the joint req_sets, the cluster flips to the pure
// new coterie, the epoch advances, and departing sites drain and retire.
//
// Configurations are totally ordered by Stage, a single integer that
// interleaves stable epochs with the joint phases between them:
// stable(E) < joint(E→E+1) < stable(E+1). Envelopes are stamped with the
// sender's stage so a transport can detect laggards and answer their stale
// frames with the current configuration (see internal/transport).
package membership

import (
	"fmt"

	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
)

// Epoch numbers a stable configuration. Epoch 0 is the configuration a
// cluster is constructed with; every completed reconfiguration increments
// it by one.
type Epoch uint64

// Stage totally orders the cluster's configuration timeline, interleaving
// stable epochs with the joint handover phases between them:
//
//	Stage 2E   = stable at epoch E
//	Stage 2E+1 = joint handover from epoch E to epoch E+1
//
// The zero value is "stable at epoch 0", which keeps envelope stamping
// backward-compatible: a peer that predates epochs stamps stage 0.
type Stage uint64

// StableStage returns the stage of a cluster stable at epoch e.
func StableStage(e Epoch) Stage { return Stage(2 * uint64(e)) }

// JointStage returns the stage of the handover from epoch e to e+1.
func JointStage(e Epoch) Stage { return Stage(2*uint64(e) + 1) }

// Epoch returns the stage's epoch: the current epoch when stable, the
// epoch being left when joint.
func (s Stage) Epoch() Epoch { return Epoch(uint64(s) / 2) }

// Joint reports whether the stage is a handover phase.
func (s Stage) Joint() bool { return uint64(s)%2 == 1 }

func (s Stage) String() string {
	if s.Joint() {
		return fmt.Sprintf("joint(%d→%d)", s.Epoch(), s.Epoch()+1)
	}
	return fmt.Sprintf("stable(%d)", s.Epoch())
}

// Config is one epoch-stamped cluster configuration: the coterie that
// arbitrates among its sites and the construction that built it. Sites are
// always the contiguous range 0..Coterie.N-1 — the protocols index state by
// SiteID — so growing adds high IDs and shrinking retires them; replacing a
// physical machine reuses its site ID across a restart.
type Config struct {
	Epoch Epoch
	// Construction supplies the configuration's §6 avoiding rule. nil
	// disables rebuilds: a site keeps its quorum around a crash (safety
	// over progress, as in §6 without a construction).
	Construction coterie.Construction
	Coterie      *coterie.Assignment
}

// NewConfig builds the configuration for n sites at the given epoch using
// the construction's assignment.
func NewConfig(epoch Epoch, cons coterie.Construction, n int) (Config, error) {
	assign, err := cons.Assign(n)
	if err != nil {
		return Config{}, fmt.Errorf("membership: assign %s(%d): %w", cons.Name(), n, err)
	}
	if err := assign.Validate(); err != nil {
		return Config{}, fmt.Errorf("membership: %s(%d): %w", cons.Name(), n, err)
	}
	return Config{Epoch: epoch, Construction: cons, Coterie: assign}, nil
}

// N returns the configuration's site count.
func (c Config) N() int {
	if c.Coterie == nil {
		return 0
	}
	return c.Coterie.N
}

// Validate checks the configuration's internal consistency.
func (c Config) Validate() error {
	if c.Coterie == nil {
		return fmt.Errorf("membership: config at epoch %d has no coterie", c.Epoch)
	}
	return c.Coterie.Validate()
}

// Member is what site id runs in this configuration: its quorum, the
// construction's §6 avoiding rule at this size, and the stable stage.
func (c Config) Member(id mutex.SiteID) mutex.Membership {
	return mutex.Membership{
		N:      c.N(),
		Quorum: c.Coterie.Quorum(id),
		Avoid:  avoidRule(c.Construction, c.N(), id),
		Stage:  uint64(StableStage(c.Epoch)),
	}
}

// avoidRule adapts cons's §6 QuorumAvoiding for site id of an n-site
// coterie to the mutex.Membership shape; nil without a construction.
func avoidRule(cons coterie.Construction, n int, id mutex.SiteID) func(map[mutex.SiteID]bool) ([]mutex.SiteID, bool) {
	if cons == nil {
		return nil
	}
	return func(down map[mutex.SiteID]bool) ([]mutex.SiteID, bool) {
		q, err := cons.QuorumAvoiding(n, id, down)
		return q, err == nil
	}
}
