package dqmx_test

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dqmx"
)

// awaitQuiet waits until every message the cluster has sent has been
// delivered, counted by a CountDeliveries hook. The count is read before
// the snapshot: a delivery is counted only after the sends it caused, so
// equal readings in this order leave nothing in flight.
func awaitQuiet(t *testing.T, cluster *dqmx.Cluster, delivered *atomic.Uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		got := delivered.Load()
		snap, _ := cluster.Snapshot()
		if got == snap.Messages {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster not quiet: %d messages sent, %d delivered", snap.Messages, got)
		}
	}
}

// TestLiveMetricsMatchSimulation drives a real in-process 9-site cluster and
// checks that its live metrics agree with the discrete-event simulator for
// the delay-optimal protocol.
//
// Phase 1 (uncontended): a sequential round-robin issues the same request
// sequence as the simulator's light load (site k%n for k = 0..total-1), so
// the per-kind message counts must agree EXACTLY — 3(K−1) = 12 messages per
// execution on the 3×3 grid, split request/reply/release.
//
// Phase 2 (contended): all nine sites acquire concurrently. Message order is
// no longer deterministic, but the paper's cost bound still applies: between
// 3(K−1) and 6(K−1) messages per execution, i.e. within [12, 24] at N=9.
func TestLiveMetricsMatchSimulation(t *testing.T) {
	const (
		n     = 9
		total = 18 // phase-1 executions: two per site
		kMin  = 12 // 3(K−1), K=5 on the 3×3 grid
		kMax  = 24 // 6(K−1)
	)

	cluster, err := dqmx.NewClusterWith(n, dqmx.Options{Observe: dqmx.ObserveConfig{Metrics: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	delivered := dqmx.CountDeliveries(cluster)

	// Phase 1: uncontended round-robin, mirroring the simulator's light load.
	// Release returns before its release messages arrive, and a release still
	// queued at an arbiter turns the next request into a transfer, so each
	// request waits until the cluster is quiet.
	for k := 0; k < total; k++ {
		awaitQuiet(t, cluster, delivered)
		node := cluster.Node(dqmx.SiteID(k % n))
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := node.Acquire(ctx)
		cancel()
		if err != nil {
			t.Fatalf("request %d: %v", k, err)
		}
		if err := node.Release(); err != nil {
			t.Fatalf("release %d: %v", k, err)
		}
	}
	live, ok := cluster.Snapshot()
	if !ok {
		t.Fatal("Observe.Metrics did not enable Snapshot")
	}

	sim, err := dqmx.Simulate(n, dqmx.Options{}, dqmx.LightLoad, total, 1)
	if err != nil {
		t.Fatal(err)
	}
	if live.Entries != uint64(total) || sim.Completed != total {
		t.Fatalf("executions: live %d, sim %d, want %d", live.Entries, sim.Completed, total)
	}
	if !reflect.DeepEqual(live.ByKind, sim.ByKind) {
		t.Errorf("per-kind counts diverge:\n  live %v\n  sim  %v", live.ByKind, sim.ByKind)
	}
	if live.MessagesPerCS != float64(kMin) || sim.MessagesPerCS != float64(kMin) {
		t.Errorf("uncontended messages/CS: live %v, sim %v, want %d",
			live.MessagesPerCS, sim.MessagesPerCS, kMin)
	}

	// Phase 2: full contention. Assert the paper's 3(K−1)..6(K−1) band on
	// the messages added by this phase alone.
	const perSite = 3
	var wg sync.WaitGroup
	errC := make(chan error, n)
	for i := 0; i < n; i++ {
		id := dqmx.SiteID(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			node := cluster.Node(id)
			for k := 0; k < perSite; k++ {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				err := node.Acquire(ctx)
				cancel()
				if err != nil {
					errC <- err
					return
				}
				if err := node.Release(); err != nil {
					errC <- err
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

	after, _ := cluster.Snapshot()
	execs := after.Exits - live.Exits
	if execs != n*perSite {
		t.Fatalf("contended executions = %d, want %d", execs, n*perSite)
	}
	perCS := float64(after.Messages-live.Messages) / float64(execs)
	if perCS < kMin || perCS > kMax {
		t.Errorf("contended messages/CS = %.2f, want within [%d, %d]", perCS, kMin, kMax)
	}
	// Under contention permissions are handed over directly, so the
	// synchronization-delay estimator must have collected samples.
	if after.SyncDelay.Count == 0 {
		t.Error("no synchronization-delay samples under contention")
	}
}

func TestProtocolAndQuorumEnumerators(t *testing.T) {
	ps := dqmx.Protocols()
	if len(ps) != 7 || ps[0] != dqmx.DelayOptimal {
		t.Errorf("Protocols() = %v", ps)
	}
	qs := dqmx.Quorums()
	if len(qs) != 9 || qs[0] != dqmx.GridQuorums {
		t.Errorf("Quorums() = %v", qs)
	}
	// Every enumerated name must validate.
	for _, p := range ps {
		if err := (dqmx.Options{Protocol: p}).Validate(); err != nil {
			t.Errorf("protocol %q: %v", p, err)
		}
	}
	for _, q := range qs {
		if err := (dqmx.Options{Quorum: q}).Validate(); err != nil {
			t.Errorf("quorum %q: %v", q, err)
		}
	}
}

func TestValidateListsChoices(t *testing.T) {
	err := dqmx.Options{Protocol: "nope"}.Validate()
	if err == nil {
		t.Fatal("accepted unknown protocol")
	}
	for _, p := range dqmx.Protocols() {
		if !strings.Contains(err.Error(), string(p)) {
			t.Errorf("error %q does not list %q", err, p)
		}
	}
	err = dqmx.Options{Quorum: "nope"}.Validate()
	if err == nil {
		t.Fatal("accepted unknown quorum")
	}
	for _, q := range dqmx.Quorums() {
		if !strings.Contains(err.Error(), string(q)) {
			t.Errorf("error %q does not list %q", err, q)
		}
	}
}

// TestObserverStream checks that the public Observer option delivers typed
// trace events from a live cluster.
func TestObserverStream(t *testing.T) {
	var mu sync.Mutex
	byType := map[dqmx.EventType]int{}
	cluster, err := dqmx.NewClusterWith(4, dqmx.Options{
		Observe: dqmx.ObserveConfig{Observer: func(e dqmx.TraceEvent) {
			mu.Lock()
			byType[e.Type]++
			mu.Unlock()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	node := cluster.Node(1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := node.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := node.Release(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if byType[dqmx.EventRequest] != 1 || byType[dqmx.EventEnter] != 1 || byType[dqmx.EventExit] != 1 {
		t.Errorf("lifecycle events = %v", byType)
	}
	if byType[dqmx.EventSend] == 0 {
		t.Errorf("no send events observed: %v", byType)
	}
}
