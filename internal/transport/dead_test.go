package transport

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"dqmx/internal/core"
	"dqmx/internal/mutex"
)

// The dead-site lists feed a newborn lock instance its failure notices, so
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

// TestKilledSiteInboxStaysEmpty: on a plain cluster nothing stands between
// the survivors and a killed site's mailbox, so the mailbox itself must
// refuse what they send the corpse during the detection window.
func TestKilledSiteInboxStaysEmpty(t *testing.T) {
	const victim = 4 // the grid's centre: in the quorums of sites 1, 3, 5 and 7
	c, err := NewCluster(core.Algorithm{}, 9)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dead := c.Node(victim)
	killed := make(chan struct{})
	go func() {
		c.KillSite(victim, 200*time.Millisecond)
		close(killed)
	}()
	<-dead.doneC
	var wg sync.WaitGroup
	errC := make(chan error, c.N())
	for id := range c.N() {
		if id == victim {
			continue
		}
		node := c.Node(mutex.SiteID(id))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				err := node.Acquire(ctx)
				cancel()
				if err == nil {
					err = node.Release()
				}
				if err != nil {
					errC <- fmt.Errorf("site %d: %w", id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-killed
	close(errC)
	for err := range errC {
		t.Fatal(err)
	}
	dead.inbox.mu.Lock()
	queued := len(dead.inbox.items)
	dead.inbox.mu.Unlock()
	if queued != 0 {
		t.Fatalf("%d envelopes queued in the killed site's inbox", queued)
	}
}
