package dqmx_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dqmx"
)

func TestClusterAcquireRelease(t *testing.T) {
	cluster, err := dqmx.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if cluster.N() != 4 {
		t.Fatalf("N = %d", cluster.N())
	}
	node := cluster.Node(2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := node.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	node.Release()
}

func TestClusterWithEveryProtocol(t *testing.T) {
	protocols := []dqmx.Protocol{
		dqmx.DelayOptimal, dqmx.Maekawa, dqmx.Lamport, dqmx.RicartAgrawala,
		dqmx.SinghalDynamic, dqmx.SuzukiKasami, dqmx.Raymond,
	}
	for _, p := range protocols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			cluster, err := dqmx.NewClusterWith(5, dqmx.Options{Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			var inCS atomic.Int32
			var wg sync.WaitGroup
			bad := make(chan int32, 32)
			for i := 0; i < 5; i++ {
				id := dqmx.SiteID(i)
				wg.Add(1)
				go func() {
					defer wg.Done()
					node := cluster.Node(id)
					for k := 0; k < 5; k++ {
						ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
						err := node.Acquire(ctx)
						cancel()
						if err != nil {
							bad <- -1
							return
						}
						if got := inCS.Add(1); got != 1 {
							bad <- got
						}
						inCS.Add(-1)
						node.Release()
					}
				}()
			}
			wg.Wait()
			close(bad)
			for b := range bad {
				if b == -1 {
					t.Error("acquire failed")
				} else {
					t.Errorf("%d sites in the CS simultaneously", b)
				}
			}

			// A named lock is a fresh run of the same protocol over all sites.
			named, err := cluster.Lock("named")
			if err != nil {
				t.Fatalf("named lock: %v", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := named.Do(ctx, func(context.Context) error { return nil }); err != nil {
				t.Fatalf("named lock: %v", err)
			}
		})
	}
}

func TestClusterWithEveryQuorum(t *testing.T) {
	quorums := []dqmx.Quorum{
		dqmx.GridQuorums, dqmx.TreeQuorums, dqmx.HQCQuorums,
		dqmx.GridSetQuorums, dqmx.RSTQuorums, dqmx.WallQuorums, dqmx.MajorityQuorums,
	}
	for _, q := range quorums {
		q := q
		t.Run(string(q), func(t *testing.T) {
			cluster, err := dqmx.NewClusterWith(8, dqmx.Options{Quorum: q})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			for i := 0; i < 8; i++ {
				node := cluster.Node(dqmx.SiteID(i))
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				err := node.Acquire(ctx)
				cancel()
				if err != nil {
					t.Fatalf("site %d: %v", i, err)
				}
				node.Release()
			}
		})
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := dqmx.NewClusterWith(3, dqmx.Options{Protocol: "nope"}); err == nil {
		t.Error("accepted unknown protocol")
	}
	if _, err := dqmx.NewClusterWith(3, dqmx.Options{Quorum: "nope"}); err == nil {
		t.Error("accepted unknown quorum")
	}
	if _, err := dqmx.NewCluster(0); err == nil {
		t.Error("accepted zero sites")
	}
}

func TestSimulateShapes(t *testing.T) {
	light, err := dqmx.Simulate(25, dqmx.Options{}, dqmx.LightLoad, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if light.MessagesPerCS != 24 { // 3(K−1), K=9 on the 5×5 grid
		t.Errorf("light messages/CS = %v, want 24", light.MessagesPerCS)
	}
	heavy, err := dqmx.Simulate(25, dqmx.Options{}, dqmx.HeavyLoad, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	mk, err := dqmx.Simulate(25, dqmx.Options{Protocol: dqmx.Maekawa}, dqmx.HeavyLoad, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !(heavy.SyncDelayT < 1.5 && mk.SyncDelayT > 1.8) {
		t.Errorf("sync delays: proposed %v, maekawa %v", heavy.SyncDelayT, mk.SyncDelayT)
	}
}

func TestQuorumOf(t *testing.T) {
	q, err := dqmx.QuorumOf(dqmx.GridQuorums, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Site 4 is the center of the 3×3 grid: row {3,4,5} ∪ column {1,4,7}.
	want := []dqmx.SiteID{1, 3, 4, 5, 7}
	if len(q) != len(want) {
		t.Fatalf("quorum = %v, want %v", q, want)
	}
	for i := range want {
		if q[i] != want[i] {
			t.Fatalf("quorum = %v, want %v", q, want)
		}
	}
	if _, err := dqmx.QuorumOf("nope", 9, 0); err == nil {
		t.Error("accepted unknown construction")
	}
}

func TestSimulateWithCrashes(t *testing.T) {
	res, err := dqmx.SimulateWithCrashes(15, dqmx.Options{Quorum: dqmx.TreeQuorums}, 3,
		[]dqmx.CrashEvent{{AtT: 2, Site: 14}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed < 14*3 {
		t.Errorf("completed %d, want ≥ 42 (survivors' full quota)", res.Completed)
	}
	if res.ByKind["failure"] == 0 {
		t.Error("no failure notifications recorded")
	}
	// Recovery disabled: the run must report starvation.
	if _, err := dqmx.SimulateWithCrashes(7, dqmx.Options{
		Quorum: dqmx.TreeQuorums, Faults: dqmx.FaultConfig{DisableRecovery: true},
	}, 2, []dqmx.CrashEvent{{AtT: 0, Site: 0}}, 1); err == nil {
		t.Error("expected the non-fault-tolerant run to stall")
	}
	// Bad options propagate.
	if _, err := dqmx.SimulateWithCrashes(5, dqmx.Options{Quorum: "nope"}, 1, nil, 1); err == nil {
		t.Error("accepted unknown quorum")
	}
}

func TestTCPNodes(t *testing.T) {
	const n = 3
	// Reserve addresses with throwaway peers, then rebuild with the full
	// address book.
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
		p, err := dqmx.NewTCPNode(n, dqmx.SiteID(i), addrs[dqmx.SiteID(i)], book, dqmx.Options{})
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
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			err := peers[i].Node().Acquire(ctx)
			cancel()
			if err != nil {
				t.Fatalf("site %d: %v", i, err)
			}
			peers[i].Node().Release()
		}
	}
}
