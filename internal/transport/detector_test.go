package transport

// Failure detection on the manual clock: the detector's exact timeout
// bounds, the order in which peers timing out together are announced, and
// an in-process crash's detection delay.

import (
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"dqmx/internal/core"
	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
	"dqmx/internal/obs"
)

// startSilentDetector starts peer 0 on a manual clock with ids in its
// address book at addresses where nothing listens, so no heartbeat is ever
// answered, and a detector probing them. It returns once the peer's flush
// loop and the detector wait on the clock, with a reader of the failure
// notices the default resource's node has handled, in handling order.
func startSilentDetector(t *testing.T, ids []mutex.SiteID, interval, timeout time.Duration) (*Detector, *manualClock, func() []mutex.SiteID) {
	t.Helper()
	book := make(map[mutex.SiteID]string, len(ids))
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		book[id] = ln.Addr().String()
		ln.Close()
	}
	clk := newManualClock()
	var mu sync.Mutex
	var failed []mutex.SiteID
	p, err := NewTCPPeerConfig(TCPConfig{
		Self:       0,
		Factory:    func(string) (mutex.Site, error) { return benchSite{id: 0}, nil },
		ListenAddr: "127.0.0.1:0",
		Peers:      book,
		Observer: func(e obs.Event) {
			if e.Type == obs.EventFailure {
				mu.Lock()
				failed = append(failed, e.Peer)
				mu.Unlock()
			}
		},
		clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := p.StartDetector(interval, timeout)
	t.Cleanup(func() {
		d.Stop()
		p.Close()
	})
	clk.awaitReaders(2)
	return d, clk, func() []mutex.SiteID {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(failed)
	}
}

// TestDetectorTimeoutExact: a silent peer is not declared dead while its
// silence is within the timeout, and is declared on the first probe past it.
// Probes are spread ±10% around the interval, so that probe comes by
// timeout + 1.1·interval.
func TestDetectorTimeoutExact(t *testing.T) {
	const interval, timeout = 10 * time.Millisecond, 50 * time.Millisecond
	for run := 0; run < 10; run++ {
		d, clk, _ := startSilentDetector(t, []mutex.SiteID{3}, interval, timeout)
		clk.Advance(timeout - interval)
		if dead := d.Dead(); len(dead) != 0 {
			t.Fatalf("run %d: declared %v dead at timeout − interval", run, dead)
		}
		clk.Advance(interval)
		if dead := d.Dead(); len(dead) != 0 {
			t.Fatalf("run %d: declared %v dead at the timeout", run, dead)
		}
		clk.Advance(interval * 11 / 10)
		if dead := d.Dead(); !slices.Equal(dead, []mutex.SiteID{3}) {
			t.Fatalf("run %d: declared %v dead by timeout + 1.1·interval, want [3]", run, dead)
		}
	}
}

// TestDetectorAnnouncesAscending: peers that time out in the same probe are
// announced in ascending order, so every instance's §6 recovery sees them in
// the same order on every run, whatever order the detector's maps iterate in.
func TestDetectorAnnouncesAscending(t *testing.T) {
	const interval, timeout = 10 * time.Millisecond, 50 * time.Millisecond
	want := []mutex.SiteID{2, 5, 7}
	for run := 0; run < 20; run++ {
		d, clk, failed := startSilentDetector(t, []mutex.SiteID{7, 2, 5}, interval, timeout)
		clk.Advance(timeout + interval*11/10)
		waitFor(t, 10*time.Second, func() bool { return len(failed()) >= len(want) }, "three failure notices")
		if got := failed(); !slices.Equal(got, want) {
			t.Fatalf("run %d: failure notices in order %v, want %v", run, got, want)
		}
		if dead := d.Dead(); !slices.Equal(dead, want) {
			t.Fatalf("run %d: Dead() = %v, want %v", run, dead, want)
		}
	}
}

// TestKillSiteDetectAfterExact: an in-process crash reaches the survivors as
// failure notices once detectAfter has passed on the cluster's clock, and
// not a nanosecond before.
func TestKillSiteDetectAfterExact(t *testing.T) {
	const detectAfter = 50 * time.Millisecond
	clk := newManualClock()
	var mu sync.Mutex
	notices := 0
	c, err := NewClusterConfig(ClusterConfig{
		Algorithm: core.Algorithm{Construction: coterie.Majority{}},
		N:         3,
		Observer: func(e obs.Event) {
			if e.Type == obs.EventFailure {
				mu.Lock()
				notices++
				mu.Unlock()
			}
		},
		clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return notices
	}
	killed := make(chan struct{})
	go func() {
		c.KillSite(2, detectAfter)
		close(killed)
	}()
	clk.awaitReaders(1) // the detection delay: a plain cluster runs no other timer
	clk.Advance(detectAfter - time.Nanosecond)
	select {
	case <-killed:
		t.Fatal("KillSite announced the crash before detectAfter")
	default:
	}
	if n := count(); n != 0 {
		t.Fatalf("%d failure notices before detectAfter", n)
	}
	clk.Advance(time.Nanosecond)
	<-killed
	waitFor(t, 10*time.Second, func() bool { return count() == 2 }, "a failure notice at each survivor")
}
