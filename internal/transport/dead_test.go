package transport

import (
	"slices"
	"testing"

	"dqmx/internal/mutex"
)

// The dead-site lists feed a newborn lock instance its SiteFailed calls, so
// their order must not depend on map iteration: ascending, on every call.

func TestDeadSitesAscending(t *testing.T) {
	c := &Cluster{dead: map[mutex.SiteID]bool{7: true, 2: true, 5: true}}
	want := []mutex.SiteID{2, 5, 7}
	for i := range 20 {
		if got := c.deadSites(); !slices.Equal(got, want) {
			t.Fatalf("call %d: deadSites = %v, want %v", i, got, want)
		}
	}
}

func TestDeadPeersAscending(t *testing.T) {
	p := &TCPPeer{dead: map[mutex.SiteID]bool{7: true, 2: true, 5: true}}
	want := []mutex.SiteID{2, 5, 7}
	for i := range 20 {
		if got := p.deadPeers(); !slices.Equal(got, want) {
			t.Fatalf("call %d: deadPeers = %v, want %v", i, got, want)
		}
	}
}
