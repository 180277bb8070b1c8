package transport

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"dqmx/internal/core"
	"dqmx/internal/coterie"
	"dqmx/internal/membership"
	"dqmx/internal/mutex"
)

// A host's dead set feeds a newborn lock instance its failure notices, so
// its order must not depend on map iteration: ascending, on every call, for
// the in-process cluster's shared record and the TCP peer's own alike.

// deadOf is a dead set recording ids, in the order given.
func deadOf(ids ...mutex.SiteID) *deadSet {
	d := newDeadSet()
	for _, id := range ids {
		d.add(id)
	}
	return d
}

func TestDeadSitesAscending(t *testing.T) {
	c := &Cluster{dead: deadOf(7, 2, 5)}
	hosts := []*host{{dead: c.dead}}
	c.hosts.Store(&hosts)
	want := []mutex.SiteID{2, 5, 7}
	for i := range 20 {
		if got := c.host(0).dead.sorted(); !slices.Equal(got, want) {
			t.Fatalf("call %d: dead sites = %v, want %v", i, got, want)
		}
	}
}

func TestDeadPeersAscending(t *testing.T) {
	p := &TCPPeer{host: &host{dead: deadOf(7, 2, 5)}}
	want := []mutex.SiteID{2, 5, 7}
	for i := range 20 {
		if got := p.host.dead.sorted(); !slices.Equal(got, want) {
			t.Fatalf("call %d: dead peers = %v, want %v", i, got, want)
		}
	}
}

// awaitQuorum polls node's req_set until it equals want.
func awaitQuorum(t *testing.T, node *Node, want []mutex.SiteID, what string) {
	t.Helper()
	var got []mutex.SiteID
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if err := node.host.onLoop(func() { got = node.site.(*core.Site).Quorum() }); err != nil {
			t.Fatal(err)
		}
		if slices.Equal(got, want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s runs req_set %v, want %v", what, got, want)
		}
	}
}

// TestHostLateLockAfterStageAndFailure: a lock first used at a site after
// the site recorded both a membership stage and a dead site is built on the
// stage's quorum and has processed failure(f) — its req_set is the stage's
// §6 substitute around f — on the in-process host and on the TCP host
// alike. The hosts start at 3 majority sites; the stage is 5 majority
// sites, so a machine left on its construction quorum would avoid f with a
// 2-site req_set instead of a 3-site one.
func TestHostLateLockAfterStageAndFailure(t *testing.T) {
	const self = mutex.SiteID(0)
	alg := core.Algorithm{Construction: coterie.Majority{}}
	stage, err := membership.NewConfig(1, coterie.Majority{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	m := stage.Member(self)
	f := m.Quorum[slices.IndexFunc(m.Quorum, func(id mutex.SiteID) bool { return id != self })]
	want, ok := m.Avoid(map[mutex.SiteID]bool{f: true})
	if !ok {
		t.Fatalf("stage quorum %v has no substitute avoiding %d", m.Quorum, f)
	}

	c, err := NewClusterConfig(ClusterConfig{Algorithm: alg, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p, err := NewTCPPeerConfig(TCPConfig{
		Self: self,
		Factory: func(string) (mutex.Site, error) {
			sites, err := alg.NewSites(3)
			if err != nil {
				return nil, err
			}
			return sites[self], nil
		},
		ListenAddr: "127.0.0.1:0",
		N:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	for _, tc := range []struct {
		name string
		h    *host
	}{{"inproc", c.host(self)}, {"tcp", p.host}} {
		t.Run(tc.name, func(t *testing.T) {
			tc.h.adopt(m)
			if err := tc.h.install(m); err != nil {
				t.Fatal(err)
			}
			tc.h.dead.add(f)
			tc.h.announce(f)
			inst, err := tc.h.Instance("late")
			if err != nil {
				t.Fatal(err)
			}
			awaitQuorum(t, inst.(*Node), want, fmt.Sprintf("lock first used after stage %d and failure(%d)", m.Stage, f))
		})
	}
}

// gatedSites wraps site `gated` of the first set of n machines it builds so
// that the first SetMembership on it waits for released to be closed,
// announcing the wait on entered.
type gatedSites struct {
	mutex.Algorithm
	n, gated          int
	entered, released chan struct{}
}

func (g *gatedSites) NewSites(n int) ([]mutex.Site, error) {
	sites, err := g.Algorithm.NewSites(n)
	if err == nil && n == g.n {
		sites[g.gated] = &gatedSite{Site: sites[g.gated].(*core.Site), g: g}
		g.n = 0
	}
	return sites, err
}

type gatedSite struct {
	*core.Site
	g    *gatedSites
	once sync.Once
}

func (s *gatedSite) SetMembership(m mutex.Membership) mutex.Output {
	s.once.Do(func() {
		close(s.g.entered)
		<-s.g.released
	})
	return s.Site.SetMembership(m)
}

// TestKillSiteDuringGrow: a crash recorded while Reconfigure is opening the
// joining sites reaches them, although it lands before they are published in
// the roster. Growing 5 → 7 majority sites, grow is held up building site
// 6's default instance, after site 5's, while a survivor in site 5's final
// quorum is killed; afterwards both site 5's default instance and a lock
// first used there run the final quorum avoiding the victim.
func TestKillSiteDuringGrow(t *testing.T) {
	const joining = mutex.SiteID(5)
	target, err := membership.NewConfig(1, coterie.Majority{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	m := target.Member(joining)
	victim := m.Quorum[slices.IndexFunc(m.Quorum, func(id mutex.SiteID) bool { return id < joining })]
	want, ok := m.Avoid(map[mutex.SiteID]bool{victim: true})
	if !ok {
		t.Fatalf("final quorum %v has no substitute avoiding %d", m.Quorum, victim)
	}

	alg := &gatedSites{
		Algorithm: core.Algorithm{Construction: coterie.Majority{}},
		n:         7,
		gated:     6,
		entered:   make(chan struct{}),
		released:  make(chan struct{}),
	}
	c, err := NewClusterConfig(ClusterConfig{Algorithm: alg, N: 5, Construction: coterie.Majority{}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	reconfigured := make(chan error, 1)
	go func() { reconfigured <- c.Reconfigure(ctx, coterie.Majority{}, 7) }()
	select {
	case <-alg.entered:
	case err := <-reconfigured:
		t.Fatalf("Reconfigure returned %v before building site %d", err, alg.gated)
	}
	killed := make(chan struct{})
	go func() {
		c.KillSite(victim, 0)
		close(killed)
	}()
	// Time for a crash that does not wait for the joining sites to be
	// recorded and swept before they are published.
	time.Sleep(20 * time.Millisecond)
	close(alg.released)
	<-killed
	if err := <-reconfigured; err != nil {
		t.Fatal(err)
	}

	h := c.host(joining)
	awaitQuorum(t, h.node, want, fmt.Sprintf("joining site %d's default instance after failure(%d)", joining, victim))
	inst, err := h.Instance("late")
	if err != nil {
		t.Fatal(err)
	}
	awaitQuorum(t, inst.(*Node), want, fmt.Sprintf("lock first used at joining site %d after failure(%d)", joining, victim))
}

// TestKilledSiteInboxStaysEmpty: on a plain cluster nothing stands between
// the survivors and a killed site's mailbox, so the mailbox itself must
// refuse what they send the corpse during the detection window.
func TestKilledSiteInboxStaysEmpty(t *testing.T) {
	const victim = 4 // the grid's centre: in the quorums of sites 1, 3, 5 and 7
	c, err := NewClusterConfig(ClusterConfig{Algorithm: core.Algorithm{}, N: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dead := c.host(victim)
	killed := make(chan struct{})
	go func() {
		c.KillSite(victim, 200*time.Millisecond)
		close(killed)
	}()
	<-dead.doneC
	var wg sync.WaitGroup
	errC := make(chan error, c.N())
	for id := range c.N() {
		if id == victim {
			continue
		}
		node := c.Node(mutex.SiteID(id))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				err := node.Acquire(ctx)
				cancel()
				if err == nil {
					err = node.Release()
				}
				if err != nil {
					errC <- fmt.Errorf("site %d: %w", id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-killed
	close(errC)
	for err := range errC {
		t.Fatal(err)
	}
	dead.inbox.mu.Lock()
	queued := len(dead.inbox.items)
	dead.inbox.mu.Unlock()
	if queued != 0 {
		t.Fatalf("%d envelopes queued in the killed site's inbox", queued)
	}
}
