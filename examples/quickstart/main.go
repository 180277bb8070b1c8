// Quickstart: nine sites in one process protect a shared counter with the
// delay-optimal distributed mutex. Without the mutex the concurrent
// increments would race; with it every update lands.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"dqmx"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		sites   = 9
		perSite = 10
	)
	cluster, err := dqmx.NewClusterWith(sites, dqmx.Options{Observe: dqmx.ObserveConfig{Metrics: true}})
	if err != nil {
		return err
	}
	defer cluster.Close()

	counter := 0 // protected by the distributed mutex, not by a local lock
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < sites; i++ {
		id := dqmx.SiteID(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			node := cluster.Node(id)
			for k := 0; k < perSite; k++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				err := node.Acquire(ctx)
				cancel()
				if err != nil {
					log.Printf("site %d: acquire: %v", id, err)
					return
				}
				counter++ // the critical section
				if err := node.Release(); err != nil {
					log.Printf("site %d: release: %v", id, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	fmt.Printf("sites:       %d\n", sites)
	fmt.Printf("increments:  %d (want %d — none lost)\n", counter, sites*perSite)
	fmt.Printf("elapsed:     %v\n", time.Since(start).Round(time.Millisecond))
	if snap, ok := cluster.Snapshot(); ok {
		fmt.Printf("messages:    %d (%.1f per CS; paper bound 3(K−1)..6(K−1) = 12..24)\n",
			snap.Messages, snap.MessagesPerCS)
	}
	if counter != sites*perSite {
		return fmt.Errorf("mutual exclusion violated: %d != %d", counter, sites*perSite)
	}
	fmt.Println("mutual exclusion held across all sites")
	return nil
}
