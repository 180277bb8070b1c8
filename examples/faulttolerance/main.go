// Fault tolerance: the §6 scenario. A 15-site cluster on Agrawal–El Abbadi
// tree quorums runs a saturated workload while two sites crash mid-run. The
// failure notifications trigger quorum reconstruction: survivors substitute
// paths around the failed nodes and keep making progress. The same crashes
// with recovery disabled stall the cluster — the honest behaviour of a
// non-fault-tolerant deployment.
package main

import (
	"fmt"
	"log"

	"dqmx"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		sites   = 15
		perSite = 4
	)
	crashes := []dqmx.CrashEvent{
		{AtT: 2, Site: 14}, // a leaf
		{AtT: 20, Site: 1}, // an inner node: every path through it reroutes
	}

	fmt.Println("running 15 sites on tree quorums; crashing sites 14 and 1 mid-run…")
	res, err := dqmx.SimulateWithCrashes(sites, dqmx.Options{Quorum: dqmx.TreeQuorums}, perSite, crashes, 42)
	if err != nil {
		return fmt.Errorf("recovery run: %w", err)
	}
	fmt.Printf("  survivors completed %d critical sections\n", res.Completed)
	fmt.Printf("  messages per CS: %.1f (includes recovery traffic)\n", res.MessagesPerCS)
	fmt.Printf("  failure notifications: %d\n", res.ByKind["failure"])
	fmt.Printf("  sync delay stayed at %.2f T\n", res.SyncDelayT)

	fmt.Println("\nsame crashes with §6 recovery disabled:")
	_, err = dqmx.SimulateWithCrashes(sites, dqmx.Options{
		Quorum: dqmx.TreeQuorums,
		Faults: dqmx.FaultConfig{DisableRecovery: true},
	}, perSite, crashes, 42)
	if err == nil {
		return fmt.Errorf("expected the non-fault-tolerant run to stall")
	}
	fmt.Printf("  cluster stalled as expected: %v\n", err)
	fmt.Println("\nfault-tolerant quorum reconstruction kept the mutex live through both crashes")
	return nil
}
