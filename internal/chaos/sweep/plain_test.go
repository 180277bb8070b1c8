package sweep

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"dqmx/internal/chaos"
	"dqmx/internal/harness"
	"dqmx/internal/mutex"
	"dqmx/internal/transport"
)

// TestPlainConformance holds a plain in-process cluster — no chaos plan, so
// no reliable sublayer: nodes send straight into each other's mailboxes — to
// the same checker as the sweep. Every site of a grid-9 saturates two locks
// for 3 600 critical sections in all; the run must keep mutual exclusion and
// settled-wave order, land inside the 3(K−1)..6(K−1) message band, and show
// no transport-level traffic at all.
func TestPlainConformance(t *testing.T) {
	const n, perSite = 9, 200
	cons, err := harness.NewConstruction("maekawa-grid")
	if err != nil {
		t.Fatal(err)
	}
	alg, err := harness.NewAlgorithm("delay-optimal", cons, false)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := cons.Assign(n)
	if err != nil {
		t.Fatal(err)
	}
	checker := chaos.NewChecker()
	cluster, err := transport.NewClusterConfig(transport.ClusterConfig{
		Algorithm: alg,
		N:         n,
		Observer:  checker.Observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.SetDeliveryHook(checker.Delivered)

	resources := []string{"alpha", "beta"}
	var wg sync.WaitGroup
	errC := make(chan error, n*len(resources))
	for id := range n {
		for _, name := range resources {
			lock, err := cluster.Lock(mutex.SiteID(id), name)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := range perSite {
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					err := lock.Acquire(ctx)
					cancel()
					if err == nil {
						err = lock.Release()
					}
					if err != nil {
						errC <- fmt.Errorf("site %d lock %q round %d: %w", id, name, round, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errC)
	for err := range errC {
		t.Fatal(err)
	}
	// Every round completed, so both resources have exits and the band is
	// checked for each.
	lo, hi := chaos.MessageBounds(assign)
	checker.CheckBounds(lo, hi)
	for _, v := range checker.Violations() {
		t.Error(v)
	}
	if rtx, dups, acks := checker.Transport(); rtx+dups+acks != 0 {
		t.Errorf("plain cluster reported transport traffic: %d retransmits, %d duplicates, %d acks", rtx, dups, acks)
	}
}
