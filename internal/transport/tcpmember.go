package transport

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"dqmx/internal/mutex"
	"dqmx/internal/resource"
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
// hosted at this peer: each instance's req_set becomes the given quorum, and
// all subsequent outbound frames carry the stage. The operator plane drives
// a TCP cluster's handover by calling this on every process — joint stage
// first (everywhere), then the final stable stage — mirroring what
// Cluster.Reconfigure does in one process for the in-process transport.
// Stages are monotone: applying a stage older than the current one fails.
//
// avoiding replaces the construction-supplied replacement-quorum search for
// §6 recovery while this stage is live; it may be nil when the machines were
// built with a Construction of their own and the stage is stable.
func (p *TCPPeer) ApplyMembership(n int, quorum []mutex.SiteID, avoiding func(down map[mutex.SiteID]bool) ([]mutex.SiteID, bool), stage uint64) error {
	if n < 1 {
		return fmt.Errorf("transport: membership with %d sites", n)
	}
	if cur := p.stage.Load(); stage < cur {
		return fmt.Errorf("transport: stale membership stage %d (current %d)", stage, cur)
	}
	var firstErr error
	p.manager.Each(func(name string, inst resource.Instance) {
		node, ok := inst.(*Node)
		if !ok {
			return
		}
		if err := node.Reconfigure(n, quorum, avoiding, stage); err != nil && !errors.Is(err, ErrClosed) && firstErr == nil {
			firstErr = fmt.Errorf("transport: apply membership to resource %q: %w", name, err)
		}
	})
	if firstErr != nil {
		return firstErr
	}
	p.stage.Store(stage)
	p.memberN.Store(int64(n))
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
	delete(p.dead, id)
	sink := p.hbSink
	p.mu.Unlock()
	if sink != nil {
		sink.track(id)
	}
}

// RemovePeer drops a departed site: its address, its outbound stream state,
// and its failure-detector entry (a retired site must not be declared
// crashed — nobody's req_set contains it anymore, so there is nothing to
// recover). Call it after the final stable stage is applied everywhere.
func (p *TCPPeer) RemovePeer(id mutex.SiteID) {
	p.mu.Lock()
	delete(p.peers, id)
	o := p.outs[id]
	delete(p.outs, id)
	sink := p.hbSink
	p.mu.Unlock()
	if o != nil {
		o.abort() // its writer idles until Close; the conn dies now
	}
	p.rel.PeerFailed(id)
	if sink != nil {
		sink.forget(id)
	}
}

// peerList snapshots the known peer IDs, ascending, under the address-book
// lock (the detector iterates peers concurrently with AddPeer/RemovePeer).
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
