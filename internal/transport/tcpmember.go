package transport

import (
	"fmt"
	"maps"
	"slices"

	"dqmx/internal/mutex"
	"dqmx/internal/wire"
)

// configMsg announces the sender's current membership stage and cluster
// size. A peer sends it in answer to a frame stamped with a stale stage, so
// a process that slept through a reconfiguration (a rolling restart, a
// partitioned operator) learns it is behind and can fetch the new
// configuration out of band. It carries no coterie — quorum assignments are
// the operator plane's to distribute (dqmd's /reconfigure), not the data
// plane's.
type configMsg struct {
	From  mutex.SiteID
	Stage uint64
	N     uint64
}

// Kind implements mutex.Message.
func (configMsg) Kind() string { return "config" }

// transportMessage: stage announcements are idempotent and monotone, so they
// travel unsequenced like heartbeats — a lost announcement is re-triggered
// by the next stale frame.
func (configMsg) transportMessage() {}

func init() {
	wire.RegisterMessage(wire.TagConfig, configMsg{},
		func(b []byte, m mutex.Message) []byte {
			cm := m.(configMsg)
			b = wire.AppendSite(b, cm.From)
			b = wire.AppendUint(b, cm.Stage)
			return wire.AppendUint(b, cm.N)
		},
		func(r *wire.Reader) (mutex.Message, error) {
			return configMsg{From: r.Site(), Stage: r.Uint(), N: r.Uint()}, nil
		})
}

// ApplyMembership installs a membership stage on every protocol instance
// hosted at this peer — those that exist now and those born later — and all
// subsequent outbound frames carry the stage. The operator plane drives a
// TCP cluster's handover by calling this on every process — joint stage
// first (everywhere), then the final stable stage — mirroring what
// Cluster.Reconfigure does in one process for the in-process transport.
// Stages are monotone: applying a stage older than the current one fails.
func (p *TCPPeer) ApplyMembership(m mutex.Membership) error {
	if m.N < 1 {
		return fmt.Errorf("transport: membership with %d sites", m.N)
	}
	if cur := p.stage.Load(); m.Stage < cur {
		return fmt.Errorf("transport: stale membership stage %d (current %d)", m.Stage, cur)
	}
	p.host.adopt(m)
	if err := p.host.install(m); err != nil {
		return err
	}
	p.stage.Store(m.Stage)
	p.memberN.Store(int64(m.N))
	return nil
}

// Stage returns the membership stage this peer currently stamps onto its
// outbound frames.
func (p *TCPPeer) Stage() uint64 { return p.stage.Load() }

// N returns the cluster size of the peer's current membership stage.
func (p *TCPPeer) N() int { return int(p.memberN.Load()) }

// MembershipHint returns the newest stage this peer has heard from the rest
// of the cluster and whether that is ahead of its own — the "you slept
// through a reconfiguration" signal surfaced on dqmd's debug page.
func (p *TCPPeer) MembershipHint() (stage uint64, behind bool) {
	hint := p.stageHint.Load()
	return hint, hint > p.stage.Load()
}

// AddPeer adds (or re-addresses) a site in this peer's address book, so a
// joining arbiter is dialable before the joint stage that includes it is
// applied. A running failure detector starts probing it; a site previously
// declared dead is given a fresh grace period (rolling restart), and
// instances created from here on are no longer told it is dead.
func (p *TCPPeer) AddPeer(id mutex.SiteID, addr string) {
	p.mu.Lock()
	p.peers[id] = addr
	sink := p.hbSink
	p.mu.Unlock()
	p.host.dead.revive(id)
	if sink != nil {
		sink.track(id)
	}
}

// peerList snapshots the known peer IDs, ascending, under the address-book
// lock (the detector iterates peers concurrently with AddPeer).
func (p *TCPPeer) peerList() []mutex.SiteID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Sorted(maps.Keys(p.peers))
}

// noteRemoteStage folds an observed remote stage into the hint maximum.
func (p *TCPPeer) noteRemoteStage(stage uint64) {
	for {
		cur := p.stageHint.Load()
		if stage <= cur || p.stageHint.CompareAndSwap(cur, stage) {
			return
		}
	}
}

// answerStale tells a peer running an older stage what the current one is —
// once per (peer, stage), so a chatty stale site does not flood the wire.
// It runs on the dispatch path, which the reliability sublayer calls with
// its stream lock held, so the answer must leave on a fresh goroutine — a
// synchronous Send would re-enter that lock and deadlock the peer.
func (p *TCPPeer) answerStale(to mutex.SiteID, stage uint64) {
	p.mu.Lock()
	if p.staleTold == nil {
		p.staleTold = make(map[mutex.SiteID]uint64)
	}
	told := p.staleTold[to]
	if told >= stage {
		p.mu.Unlock()
		return
	}
	p.staleTold[to] = stage
	p.mu.Unlock()
	env := mutex.Envelope{
		From:  p.self,
		To:    to,
		Epoch: stage,
		Msg:   configMsg{From: p.self, Stage: stage, N: uint64(p.memberN.Load())},
	}
	go func() { _ = p.rel.Send(env) }()
}
