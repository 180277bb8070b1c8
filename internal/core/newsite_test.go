package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"dqmx/internal/core"
	"dqmx/internal/harness"
	"dqmx/internal/mutex"
)

// TestNewSiteAloneMatchesNewSites: a machine built alone over one assignment
// equals the same site of NewSites(n), byte for byte under AppendCanonical
// and field for field in the construction-time configuration AppendCanonical
// leaves out (hand-off, recovery construction), for every quorum
// construction, hand-off and recovery setting, and every site.
func TestNewSiteAloneMatchesNewSites(t *testing.T) {
	handoffs := []core.Handoff{core.Transfer, core.ViaArbiter}
	for _, name := range harness.QuorumNames() {
		cons, err := harness.NewConstruction(name)
		if err != nil {
			t.Fatal(err)
		}
		built := 0
		for _, n := range []int{1, 3, 7, 9, 13, 15} {
			for _, handoff := range handoffs {
				for _, noRecovery := range []bool{false, true} {
					alg := core.Algorithm{Construction: cons, Handoff: handoff, DisableRecovery: noRecovery}
					want, err := alg.NewSites(n)
					if err != nil {
						continue // the construction does not fit n sites
					}
					assign, err := alg.Assign(n)
					if err != nil {
						t.Fatalf("%s n=%d: NewSites succeeded, Assign failed: %v", name, n, err)
					}
					for id := range want {
						tag := fmt.Sprintf("%s n=%d handoff=%d noRecovery=%v site %d", name, n, handoff, noRecovery, id)
						alone := alg.NewSite(mutex.SiteID(id), assign)
						whole := want[id].(*core.Site)
						if !bytes.Equal(alone.AppendCanonical(nil), whole.AppendCanonical(nil)) {
							t.Fatalf("%s: AppendCanonical differs from NewSites'", tag)
						}
						if !reflect.DeepEqual(alone, whole) {
							t.Fatalf("%s: configuration differs from NewSites'", tag)
						}
					}
					built++
				}
			}
		}
		if built == 0 {
			t.Errorf("%s: no n in the table fits the construction", name)
		}
	}
}
