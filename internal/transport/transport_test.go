package transport_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dqmx/internal/core"
	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
	"dqmx/internal/transport"
)

// TestInProcMutualExclusion hammers an in-process cluster from every site
// concurrently and checks that the critical section is exclusive.
func TestInProcMutualExclusion(t *testing.T) {
	const (
		n       = 9
		perSite = 20
	)
	cluster, err := transport.NewClusterConfig(transport.ClusterConfig{Algorithm: core.Algorithm{}, N: n})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	var inCS atomic.Int32
	var counter int // protected by the distributed mutex only
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		id := mutex.SiteID(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			node := cluster.Node(id)
			for k := 0; k < perSite; k++ {
				if err := node.Acquire(context.Background()); err != nil {
					errs <- fmt.Errorf("site %d acquire: %w", id, err)
					return
				}
				if got := inCS.Add(1); got != 1 {
					errs <- fmt.Errorf("site %d: %d sites in CS", id, got)
				}
				counter++
				inCS.Add(-1)
				node.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if counter != n*perSite {
		t.Errorf("counter = %d, want %d (lost updates)", counter, n*perSite)
	}
}

func TestInProcTreeQuorums(t *testing.T) {
	cluster, err := transport.NewClusterConfig(transport.ClusterConfig{Algorithm: core.Algorithm{Construction: coterie.Tree{}}, N: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	for k := 0; k < 5; k++ {
		for i := 0; i < 7; i++ {
			node := cluster.Node(mutex.SiteID(i))
			if err := node.Acquire(context.Background()); err != nil {
				t.Fatal(err)
			}
			node.Release()
		}
	}
}

func TestAcquireBusy(t *testing.T) {
	cluster, err := transport.NewClusterConfig(transport.ClusterConfig{Algorithm: core.Algorithm{}, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	node := cluster.Node(0)
	if err := node.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := node.Acquire(ctx); !errors.Is(err, transport.ErrBusy) {
		t.Fatalf("second acquire = %v, want ErrBusy", err)
	}
	node.Release()
}

func TestAcquireContextCancelled(t *testing.T) {
	cluster, err := transport.NewClusterConfig(transport.ClusterConfig{Algorithm: core.Algorithm{}, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	// Site 0 takes the CS; site 1's acquire must respect its deadline, and
	// the abandoned grant must be auto-released so site 0 can re-acquire.
	if err := cluster.Node(0).Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := cluster.Node(1).Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("acquire = %v, want deadline exceeded", err)
	}
	cluster.Node(0).Release()
	// The cancelled site's grant is handed back automatically; site 0 must
	// be able to go again.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := cluster.Node(0).Acquire(ctx2); err != nil {
		t.Fatalf("re-acquire after abandoned grant: %v", err)
	}
	cluster.Node(0).Release()
}

func TestNodeCloseUnblocks(t *testing.T) {
	cluster, err := transport.NewClusterConfig(transport.ClusterConfig{Algorithm: core.Algorithm{}, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	node := cluster.Node(0)
	cluster.Close()
	if err := node.Acquire(context.Background()); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("acquire on closed node = %v, want ErrClosed", err)
	}
}

// TestOneLoopPerSite: a site runs one loop for all its locks, and an
// Acquire starts no goroutine. 50 named locks on a 9-site in-process
// cluster, each acquired and released once, leave at most 9 goroutines
// running over the baseline (a loop per lock instance was 259).
func TestOneLoopPerSite(t *testing.T) {
	const n = 9
	base := runtime.NumGoroutine()
	cluster, err := transport.NewClusterConfig(transport.ClusterConfig{Algorithm: core.Algorithm{}, N: n})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	for k := range 50 {
		l, err := cluster.Lock(mutex.SiteID(k%n), fmt.Sprintf("lock-%d", k))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := l.Release(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := runtime.NumGoroutine() - base
		if got <= n {
			t.Logf("%d goroutines over the baseline for %d sites and %d resources", got, n, len(cluster.Resources()))
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines over the baseline, want at most %d (one loop per site)", got, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPCluster runs a three-site cluster over real loopback TCP.
func TestTCPCluster(t *testing.T) {
	const n = 3
	alg := core.Algorithm{Construction: coterie.Majority{}}
	sites, err := alg.NewSites(n)
	if err != nil {
		t.Fatal(err)
	}
	peers := make([]*transport.TCPPeer, n)
	addrs := make(map[mutex.SiteID]string, n)
	// First pass: listeners on ephemeral ports.
	for i := 0; i < n; i++ {
		p, err := transport.NewTCPPeerConfig(transport.TCPConfig{Self: sites[i].ID(), Factory: transport.DefaultOnly(sites[i]), ListenAddr: "127.0.0.1:0", Peers: nil})
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
		addrs[mutex.SiteID(i)] = p.Addr()
	}
	// Tear down and rebuild with full address books (simplest wiring for an
	// ephemeral-port test).
	for _, p := range peers {
		p.Close()
	}
	sites, err = alg.NewSites(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		book := make(map[mutex.SiteID]string, n-1)
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
	}
	defer func() {
		for _, p := range peers {
			p.Close()
		}
	}()

	var inCS atomic.Int32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			node := peers[i].Node()
			for k := 0; k < 5; k++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				err := node.Acquire(ctx)
				cancel()
				if err != nil {
					errs <- fmt.Errorf("site %d: %w", i, err)
					return
				}
				if got := inCS.Add(1); got != 1 {
					errs <- fmt.Errorf("site %d: %d sites in CS over TCP", i, got)
				}
				time.Sleep(time.Millisecond)
				inCS.Add(-1)
				node.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
