package dqmx_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"dqmx"
)

// ExampleNewCluster shows the minimal acquire/release loop.
func ExampleNewCluster() {
	cluster, err := dqmx.NewCluster(4)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	node := cluster.Node(2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := node.Acquire(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("site 2 is in the critical section")
	if err := node.Release(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// site 2 is in the critical section
}

// ExampleCluster_Snapshot enables the live metrics aggregator and reads the
// per-execution message cost of an uncontended round: exactly 3(K−1) = 12
// messages on the 3×3 grid.
func ExampleCluster_Snapshot() {
	cluster, err := dqmx.NewClusterWith(9, dqmx.Options{Observe: dqmx.ObserveConfig{Metrics: true}})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	for i := 0; i < 9; i++ {
		node := cluster.Node(dqmx.SiteID(i))
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := node.Acquire(ctx); err != nil {
			log.Fatal(err)
		}
		cancel()
		if err := node.Release(); err != nil {
			log.Fatal(err)
		}
	}
	snap, _ := cluster.Snapshot()
	fmt.Printf("%d executions, %.0f messages per CS\n", snap.Entries, snap.MessagesPerCS)
	// Output:
	// 9 executions, 12 messages per CS
}

// ExampleLock_Do shows the recommended way to use a named lock: Do acquires,
// runs the function, and always releases — on success, on error, and on
// panic. Every name is its own distributed lock, multiplexed over the same
// sites and connections; independent names never wait on each other.
func ExampleLock_Do() {
	cluster, err := dqmx.NewClusterWith(9, dqmx.Options{Observe: dqmx.ObserveConfig{Metrics: true}})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	orders, err := cluster.Lock("orders")
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = orders.Do(ctx, func(ctx context.Context) error {
		fmt.Println("holding the orders lock")
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// Each named lock keeps the paper's per-resource cost guarantee.
	snap, _ := cluster.SnapshotResource("orders")
	fmt.Printf("%.0f messages for this execution\n", snap.MessagesPerCS)
	// Output:
	// holding the orders lock
	// 12 messages for this execution
}

// ExampleSimulate reproduces the paper's light-load message count: exactly
// 3(K−1) messages per uncontended critical section.
func ExampleSimulate() {
	res, err := dqmx.Simulate(25, dqmx.Options{}, dqmx.LightLoad, 10, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %.0f messages per CS at light load\n", res.Algorithm, res.MessagesPerCS)
	// Output:
	// delay-optimal(maekawa-grid): 24 messages per CS at light load
}

// ExampleServe wires up the lock-service tier: a small fixed coterie of
// arbiter sites serves leased lock sessions to clients that never join the
// quorum protocol, so message cost per critical section stays a function
// of the coterie while the client population scales freely. This example
// has no Output line because it binds real network listeners; the
// root-package service tests (TestServiceLiveScale and friends) run the
// identical path live under -race.
func ExampleServe() {
	// One Serve call per arbiter process. PeerListen carries quorum
	// traffic, ClientListen leases sessions; Lease bounds how long a
	// crashed client can keep a lock.
	srv, err := dqmx.Serve(dqmx.ServeConfig{
		N:            3,
		ID:           0,
		PeerListen:   ":7100",
		Peers:        map[dqmx.SiteID]string{1: "host2:7100", 2: "host3:7100"},
		ClientListen: ":7200",
		Lease:        5 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// Any number of client processes attach with Dial; the address list is
	// the fail-over chain. Session handles hand out the same *dqmx.Lock as
	// clusters and TCP peers do.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sess, err := dqmx.Dial(ctx, []string{"host1:7200", "host2:7200"}, dqmx.DialConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	orders, err := sess.Lock("orders")
	if err != nil {
		log.Fatal(err)
	}
	err = orders.Do(ctx, func(ctx context.Context) error {
		// ... at most one holder of "orders" across every client ...
		return nil
	})
	if err != nil {
		log.Fatal(err) // ErrLockLost here means the session was rebuilt
	}
}

// ExampleQuorumOf inspects the grid quorum of the center site of a 3×3
// grid.
func ExampleQuorumOf() {
	q, err := dqmx.QuorumOf(dqmx.GridQuorums, 9, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(q)
	// Output:
	// [1 3 4 5 7]
}
