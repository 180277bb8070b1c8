package transport_test

import (
	"context"
	"net"
	"testing"
	"time"

	"dqmx/internal/core"
	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
	"dqmx/internal/transport"
)

// TestKillSiteRecovery: in-process §6 recovery — after a crashed quorum
// member is announced, survivors rebuild tree quorums and keep acquiring.
func TestKillSiteRecovery(t *testing.T) {
	const n = 15
	cluster, err := transport.NewClusterConfig(transport.ClusterConfig{Algorithm: core.Algorithm{Construction: coterie.Tree{}}, N: n})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// Everyone exercises the mutex once before the crash.
	for i := 0; i < n; i++ {
		node := cluster.Node(mutex.SiteID(i))
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := node.Acquire(ctx)
		cancel()
		if err != nil {
			t.Fatalf("pre-crash site %d: %v", i, err)
		}
		node.Release()
	}

	cluster.KillSite(1, 10*time.Millisecond) // inner tree node

	for i := 0; i < n; i++ {
		if i == 1 {
			continue
		}
		node := cluster.Node(mutex.SiteID(i))
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := node.Acquire(ctx)
		cancel()
		if err != nil {
			t.Fatalf("post-crash site %d: %v", i, err)
		}
		node.Release()
	}
}

// TestKillSiteWithoutRecoveryBlocks: without the §6 protocol a dependent
// request blocks, as the honest semantics require.
func TestKillSiteWithoutRecoveryBlocks(t *testing.T) {
	const n = 7
	cluster, err := transport.NewClusterConfig(transport.ClusterConfig{Algorithm: core.Algorithm{
		Construction:    coterie.Tree{},
		DisableRecovery: true,
	}, N: n})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	cluster.KillSite(0, 10*time.Millisecond) // the root: in every quorum
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := cluster.Node(3).Acquire(ctx); err == nil {
		t.Fatal("acquire succeeded although the root is dead and recovery is off")
	}
}

// TestKillSiteThenNewLock: a named lock first used after a crash was
// announced must also route around the dead site. Its instances are built
// after the notifications went out, so they learn of the crash at birth.
func TestKillSiteThenNewLock(t *testing.T) {
	const n = 7
	cluster, err := transport.NewClusterConfig(transport.ClusterConfig{Algorithm: core.Algorithm{Construction: coterie.Tree{}}, N: n})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	cluster.KillSite(0, time.Millisecond) // the root: in every default quorum
	for _, id := range []mutex.SiteID{3, 5} {
		lock, err := cluster.Lock(id, "late")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = lock.Acquire(ctx)
		cancel()
		if err != nil {
			t.Fatalf("site %d: acquire of a lock first used after the crash: %v\n%s", id, err, cluster.DumpState())
		}
		if err := lock.Release(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTCPDeclaredDeadThenNewLock: the TCP twin of TestKillSiteThenNewLock. A
// lock first used after the detector declared a peer dead must route around
// it too: its instances are built after the declaration, so they learn of
// it at birth.
func TestTCPDeclaredDeadThenNewLock(t *testing.T) {
	const n = 3
	cons := coterie.Majority{}
	alg := core.Algorithm{Construction: cons}
	assign, err := cons.Assign(n)
	if err != nil {
		t.Fatal(err)
	}
	// Site 0 survives; the victim is another member of its default quorum.
	const survivor = mutex.SiteID(0)
	victim := survivor
	for _, id := range assign.Quorum(survivor) {
		if id != survivor {
			victim = id
			break
		}
	}
	if victim == survivor {
		t.Fatalf("site %d's quorum %v names no other site", survivor, assign.Quorum(survivor))
	}

	addrs := make(map[mutex.SiteID]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[mutex.SiteID(i)] = ln.Addr().String()
		ln.Close()
	}
	peers := make([]*transport.TCPPeer, n)
	detectors := make([]*transport.Detector, n)
	for i := 0; i < n; i++ {
		id := mutex.SiteID(i)
		book := make(map[mutex.SiteID]string)
		for j, a := range addrs {
			if j != id {
				book[j] = a
			}
		}
		p, err := transport.NewTCPPeerConfig(transport.TCPConfig{
			Self: id,
			Factory: func(string) (mutex.Site, error) {
				sites, err := alg.NewSites(n)
				if err != nil {
					return nil, err
				}
				return sites[id], nil
			},
			ListenAddr: addrs[id],
			Peers:      book,
		})
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
		detectors[i] = p.StartDetector(20*time.Millisecond, 150*time.Millisecond)
	}
	defer func() {
		for i, p := range peers {
			if mutex.SiteID(i) != victim {
				detectors[i].Stop()
				p.Close()
			}
		}
	}()

	detectors[victim].Stop()
	peers[victim].Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		dead := detectors[survivor].Dead()
		if len(dead) == 1 && dead[0] == victim {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("site %d never declared site %d dead (declared: %v)", survivor, victim, dead)
		}
		time.Sleep(10 * time.Millisecond)
	}

	lock, err := peers[survivor].Lock("late")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := lock.Acquire(ctx); err != nil {
		t.Fatalf("site %d: acquire of a lock first used after site %d was declared dead: %v", survivor, victim, err)
	}
	if err := lock.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestTCPDetector: heartbeat detection over real TCP — when one peer dies,
// the others declare it and the recovery protocol keeps the mutex usable.
func TestTCPDetector(t *testing.T) {
	const n = 3
	alg := core.Algorithm{Construction: coterie.Majority{}}

	sites, err := alg.NewSites(n)
	if err != nil {
		t.Fatal(err)
	}
	tmp := make([]*transport.TCPPeer, n)
	addrs := make(map[mutex.SiteID]string, n)
	for i := 0; i < n; i++ {
		p, err := transport.NewTCPPeerConfig(transport.TCPConfig{Self: sites[i].ID(), Factory: transport.DefaultOnly(sites[i]), ListenAddr: "127.0.0.1:0", Peers: nil})
		if err != nil {
			t.Fatal(err)
		}
		tmp[i] = p
		addrs[mutex.SiteID(i)] = p.Addr()
	}
	for _, p := range tmp {
		p.Close()
	}
	sites, err = alg.NewSites(n)
	if err != nil {
		t.Fatal(err)
	}
	peers := make([]*transport.TCPPeer, n)
	detectors := make([]*transport.Detector, n)
	for i := 0; i < n; i++ {
		book := make(map[mutex.SiteID]string)
		for j, a := range addrs {
			if int(j) != i {
				book[j] = a
			}
		}
		p, err := transport.NewTCPPeerConfig(transport.TCPConfig{Self: sites[i].ID(), Factory: transport.DefaultOnly(sites[i]), ListenAddr: addrs[mutex.SiteID(i)], Peers: book})
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
		detectors[i] = p.StartDetector(20*time.Millisecond, 150*time.Millisecond)
	}
	defer func() {
		for i, p := range peers {
			if i != 2 {
				detectors[i].Stop()
				p.Close()
			}
		}
	}()

	// Warm up: site 0 acquires once with all peers alive.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = peers[0].Node().Acquire(ctx)
	cancel()
	if err != nil {
		t.Fatalf("warm-up acquire: %v", err)
	}
	peers[0].Node().Release()

	// Kill peer 2; survivors must detect it.
	detectors[2].Stop()
	peers[2].Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		dead0 := detectors[0].Dead()
		if len(dead0) == 1 && dead0[0] == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("site 0 never declared site 2 dead (declared: %v)", dead0)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The mutex stays usable: majority quorums avoid the dead site.
	for _, i := range []int{0, 1} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := peers[i].Node().Acquire(ctx)
		cancel()
		if err != nil {
			t.Fatalf("post-crash acquire by site %d: %v", i, err)
		}
		peers[i].Node().Release()
	}
}
