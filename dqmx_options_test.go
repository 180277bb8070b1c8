package dqmx_test

import (
	"context"
	"testing"

	"dqmx"
)

// TestOptionsGroupedFields drives the grouped Observe/Faults sub-configs
// through a live cluster: metrics land in Snapshot and the §6 toggles reach
// the algorithm factory.
func TestOptionsGroupedFields(t *testing.T) {
	cluster, err := dqmx.NewClusterWith(4, dqmx.Options{
		Observe: dqmx.ObserveConfig{Metrics: true},
		Faults:  dqmx.FaultConfig{DisableRecovery: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	node := cluster.Node(0)
	if err := node.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	node.Release()
	if _, ok := cluster.Snapshot(); !ok {
		t.Error("Observe.Metrics did not enable the aggregator")
	}
	// Maekawa is the delay-optimal machine with another hand-off, so the §6
	// toggle applies to it too.
	grouped := dqmx.Options{Protocol: dqmx.Maekawa, Faults: dqmx.FaultConfig{DisableRecovery: true}}
	if err := grouped.Validate(); err != nil {
		t.Errorf("Maekawa with Faults.DisableRecovery: %v", err)
	}
}
