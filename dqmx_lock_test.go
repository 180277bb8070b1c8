package dqmx_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dqmx"
)

// TestNamedLocksLightLoadCost multiplexes 64 named locks over a 9-site
// in-process cluster and checks that each lock, used without contention,
// still costs exactly 3(K−1) messages per critical section — the paper's
// light-load bound holds per resource, not just in aggregate.
func TestNamedLocksLightLoadCost(t *testing.T) {
	const (
		n       = 9
		locks   = 64
		perLock = 3
		kMin    = 12 // 3(K−1), K=5 on the 3×3 grid
	)
	cluster, err := dqmx.NewClusterWith(n, dqmx.Options{Observe: dqmx.ObserveConfig{Metrics: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	names := make([]string, locks)
	for i := range names {
		names[i] = fmt.Sprintf("resource-%02d", i)
	}

	// All 64 locks churn concurrently; within each resource the load is
	// light (one sequential user), so each CS must hit the 3(K−1) floor.
	var wg sync.WaitGroup
	errC := make(chan error, locks)
	for _, name := range names {
		name := name
		wg.Add(1)
		go func() {
			defer wg.Done()
			lock, err := cluster.Lock(name)
			if err != nil {
				errC <- err
				return
			}
			for k := 0; k < perLock; k++ {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				err := lock.Acquire(ctx)
				cancel()
				if err != nil {
					errC <- fmt.Errorf("%s: %w", name, err)
					return
				}
				if err := lock.Release(); err != nil {
					errC <- fmt.Errorf("%s release: %w", name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errC)
	for err := range errC {
		t.Fatal(err)
	}

	for _, name := range names {
		snap, ok := cluster.SnapshotResource(name)
		if !ok {
			t.Fatalf("%s: no metrics", name)
		}
		if snap.Exits != perLock {
			t.Errorf("%s: exits = %d, want %d", name, snap.Exits, perLock)
		}
		if snap.MessagesPerCS != kMin {
			t.Errorf("%s: messages/CS = %v, want %d (3(K−1))", name, snap.MessagesPerCS, kMin)
		}
	}

	// The aggregate snapshot covers every resource.
	total, ok := cluster.Snapshot()
	if !ok {
		t.Fatal("no aggregate metrics")
	}
	if total.Exits != locks*perLock {
		t.Errorf("aggregate exits = %d, want %d", total.Exits, locks*perLock)
	}
	if got := len(cluster.Resources()); got != locks+1 { // 64 names + default
		t.Errorf("Resources() lists %d names, want %d", got, locks+1)
	}
}

// TestNamedLocksAreIndependent holds every named lock — and the legacy
// default-resource Node — at the same time: resources must never block each
// other.
func TestNamedLocksAreIndependent(t *testing.T) {
	const (
		n     = 9
		locks = 64
	)
	cluster, err := dqmx.NewCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	node := cluster.Node(0)
	if err := node.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	held := make([]*dqmx.Lock, 0, locks)
	for i := 0; i < locks; i++ {
		lock, err := cluster.Lock(fmt.Sprintf("independent-%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := lock.Acquire(ctx); err != nil {
			t.Fatalf("lock %d blocked while %d others were held: %v", i, i, err)
		}
		held = append(held, lock)
	}
	// All 64 named locks and the default mutex are held simultaneously.
	for _, lock := range held {
		if err := lock.Release(); err != nil {
			t.Fatal(err)
		}
	}
	if err := node.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestNamedLockMutualExclusion contends one name from every site (via
// LockOn) and checks the protocol serializes them.
func TestNamedLockMutualExclusion(t *testing.T) {
	const (
		n       = 4
		perSite = 5
	)
	cluster, err := dqmx.NewCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	var inCS atomic.Int32
	var wg sync.WaitGroup
	bad := make(chan error, n*perSite)
	for i := 0; i < n; i++ {
		id := dqmx.SiteID(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			lock, err := cluster.LockOn(id, "shared")
			if err != nil {
				bad <- err
				return
			}
			for k := 0; k < perSite; k++ {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				err := lock.Do(ctx, func(context.Context) error {
					if got := inCS.Add(1); got != 1 {
						return fmt.Errorf("%d sites in the CS simultaneously", got)
					}
					inCS.Add(-1)
					return nil
				})
				cancel()
				if err != nil {
					bad <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(bad)
	for err := range bad {
		t.Error(err)
	}
}

// startTCPTrio boots a 3-site TCP cluster on loopback and returns the peers.
func startTCPTrio(t *testing.T, opts dqmx.Options) []*dqmx.TCPPeer {
	t.Helper()
	const n = 3
	tmp := make([]*dqmx.TCPPeer, n)
	addrs := make(map[dqmx.SiteID]string, n)
	for i := 0; i < n; i++ {
		p, err := dqmx.NewTCPNode(n, dqmx.SiteID(i), "127.0.0.1:0", nil, dqmx.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tmp[i] = p
		addrs[dqmx.SiteID(i)] = p.Addr()
	}
	for _, p := range tmp {
		p.Close()
	}
	peers := make([]*dqmx.TCPPeer, n)
	for i := 0; i < n; i++ {
		book := make(map[dqmx.SiteID]string)
		for j, a := range addrs {
			if int(j) != i {
				book[j] = a
			}
		}
		p, err := dqmx.NewTCPNode(n, dqmx.SiteID(i), addrs[dqmx.SiteID(i)], book, opts)
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
	}
	t.Cleanup(func() {
		for _, p := range peers {
			p.Close()
		}
	})
	return peers
}

// TestTCPNamedLocks runs two named locks over one 3-site TCP cluster:
// both resources share the sockets, stay mutually independent, and each
// keeps the light-load message cost of 3 messages per remote quorum member.
func TestTCPNamedLocks(t *testing.T) {
	const rounds = 3
	peers := startTCPTrio(t, dqmx.Options{Observe: dqmx.ObserveConfig{Metrics: true}})

	resources := []struct {
		name string
		host int
	}{
		{"alpha", 0},
		{"beta", 1},
	}
	var wg sync.WaitGroup
	errC := make(chan error, len(resources))
	for _, r := range resources {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			lock, err := peers[r.host].Lock(r.name)
			if err != nil {
				errC <- err
				return
			}
			for k := 0; k < rounds; k++ {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				err := lock.Do(ctx, func(context.Context) error { return nil })
				cancel()
				if err != nil {
					errC <- fmt.Errorf("%s: %w", r.name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errC)
	for err := range errC {
		t.Fatal(err)
	}

	for _, r := range resources {
		quorum, err := dqmx.QuorumOf(dqmx.GridQuorums, 3, dqmx.SiteID(r.host))
		if err != nil {
			t.Fatal(err)
		}
		remote := 0
		for _, id := range quorum {
			if int(id) != r.host {
				remote++
			}
		}
		// Each peer's metrics count its own sends; summing across peers
		// gives the resource's total traffic.
		var messages, exits uint64
		for _, p := range peers {
			if snap, ok := p.SnapshotResource(r.name); ok {
				messages += snap.Messages
				exits += snap.Exits
			}
		}
		if exits != rounds {
			t.Errorf("%s: exits = %d, want %d", r.name, exits, rounds)
		}
		if want := uint64(rounds * 3 * remote); messages != want {
			t.Errorf("%s: messages = %d, want %d (3 per remote quorum member)",
				r.name, messages, want)
		}
		if _, ok := peers[r.host].SnapshotResource("never-used"); ok {
			t.Error("metrics invented an unused resource")
		}
	}
}

// TestTCPReconnectBackoff starts a required quorum member ~200ms after the
// requester has already issued its lock requests: the sender's bounded
// reconnect-with-backoff must deliver the queued messages once the peer
// comes up, instead of failing on the first dial.
func TestTCPReconnectBackoff(t *testing.T) {
	const n = 3
	// Reserve three loopback addresses.
	addrs := make(map[dqmx.SiteID]string, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[dqmx.SiteID(i)] = l.Addr().String()
		l.Close()
	}
	book := func(self int) map[dqmx.SiteID]string {
		m := make(map[dqmx.SiteID]string)
		for j, a := range addrs {
			if int(j) != self {
				m[j] = a
			}
		}
		return m
	}

	// The grid coterie for N=3 puts every site in site 0's quorum, so the
	// late site is load-bearing: without it the acquire cannot complete.
	peers := make([]*dqmx.TCPPeer, n)
	for i := 0; i < n-1; i++ {
		p, err := dqmx.NewTCPNode(n, dqmx.SiteID(i), addrs[dqmx.SiteID(i)], book(i), dqmx.Options{})
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
	}
	defer func() {
		for _, p := range peers {
			if p != nil {
				p.Close()
			}
		}
	}()

	late := make(chan error, 1)
	go func() {
		time.Sleep(200 * time.Millisecond)
		p, err := dqmx.NewTCPNode(n, dqmx.SiteID(n-1), addrs[dqmx.SiteID(n-1)], book(n-1), dqmx.Options{})
		if err != nil {
			late <- err
			return
		}
		peers[n-1] = p
		late <- nil
	}()

	// Acquire immediately: the requests aimed at the absent site must
	// survive the dial failures and arrive once it listens.
	lock, err := peers[0].Lock("delayed")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := lock.Acquire(ctx); err != nil {
		t.Fatalf("acquire across a late-starting peer: %v", err)
	}
	if err := lock.Release(); err != nil {
		t.Fatal(err)
	}
	if err := <-late; err != nil {
		t.Fatal(err)
	}
}
