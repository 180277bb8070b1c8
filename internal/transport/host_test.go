package transport

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dqmx/internal/mutex"
	"dqmx/internal/resource"
)

// The lock table a host keeps: canonical handles, the name rule checked
// once per name, lazy builds on inbound traffic, routing, walks and Close.
// The instances are inert machines (benchSite), one per name.

// nopSender is a wire that takes everything and delivers nothing.
type nopSender struct{}

func (nopSender) Send(mutex.Envelope) error        { return nil }
func (nopSender) SendBatch([]mutex.Envelope) error { return nil }

// testHost is an opened host over inert machines, with the factory's call
// count and the envelopes each resource's instance processed.
type testHost struct {
	*host
	builds atomic.Int64

	mu        sync.Mutex
	delivered map[string]int
}

func newTestHost(t *testing.T) *testHost {
	t.Helper()
	th := &testHost{delivered: make(map[string]int)}
	factory := func(string) (mutex.Site, error) {
		th.builds.Add(1)
		return benchSite{}, nil
	}
	var stage atomic.Uint64
	th.host = newHost(0, factory, nopSender{}, nil, &stage, newDeadSet(), func(env mutex.Envelope) {
		th.mu.Lock()
		th.delivered[env.Resource]++
		th.mu.Unlock()
	})
	if err := th.open(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(th.close)
	// Later counts are of named locks only.
	th.builds.Store(0)
	return th
}

// awaitDelivered waits until each resource's instance has processed the
// given number of envelopes.
func (th *testHost) awaitDelivered(t *testing.T, want map[string]int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		th.mu.Lock()
		got := fmt.Sprint(th.delivered)
		th.mu.Unlock()
		if got == fmt.Sprint(want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %s, want %v", got, want)
		}
	}
}

func TestLockHandlesAreCanonical(t *testing.T) {
	h := newTestHost(t)
	a1, err := h.lock("a")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := h.lock("a")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("two lock calls for one name returned distinct handles")
	}
	if a1.Name() != "a" {
		t.Errorf("Name() = %q", a1.Name())
	}
	b, err := h.lock("b")
	if err != nil {
		t.Fatal(err)
	}
	if b == a1 {
		t.Error("distinct names share a handle")
	}
	if got := h.builds.Load(); got != 2 {
		t.Errorf("factory ran %d times, want 2 (one per name)", got)
	}
}

func TestLockRejectsEmptyName(t *testing.T) {
	h := newTestHost(t)
	if _, err := h.lock(resource.Default); err == nil {
		t.Fatal("empty name accepted: the default resource must stay reserved")
	}
}

// TestPolicyValidationRunsOncePerName: the host admits a name of
// resource.MaxNameLength bytes, once — later calls reuse its instance — and
// refuses one a byte longer.
func TestPolicyValidationRunsOncePerName(t *testing.T) {
	h := newTestHost(t)
	longest := strings.Repeat("n", resource.MaxNameLength)
	for i := 0; i < 5; i++ {
		if _, err := h.lock(longest); err != nil {
			t.Fatalf("%d-byte name refused: %v", len(longest), err)
		}
	}
	if got := h.builds.Load(); got != 1 {
		t.Errorf("factory ran %d times for one name, want 1", got)
	}
	if _, err := h.lock(longest + "n"); err == nil {
		t.Errorf("%d-byte name accepted", len(longest)+1)
	}
	if got := h.builds.Load(); got != 1 {
		t.Errorf("factory ran %d times, want 1: the oversized name was built", got)
	}
}

func TestInjectRoutesAndInstantiatesLazily(t *testing.T) {
	h := newTestHost(t)
	if err := h.inject(mutex.Envelope{Resource: "remote-opened", From: 1, To: 0, Msg: mutex.FailureMsg{}}); err != nil {
		t.Fatal(err)
	}
	if got := h.resources(); fmt.Sprint(got) != fmt.Sprint([]string{"", "remote-opened"}) {
		t.Fatalf("resources after an inbound envelope = %q, want the default and %q", got, "remote-opened")
	}
	h.awaitDelivered(t, map[string]int{"remote-opened": 1})

	// A batch splits into per-resource runs.
	batch := []mutex.Envelope{
		{Resource: "x", To: 0, Msg: mutex.FailureMsg{}},
		{Resource: "x", To: 0, Msg: mutex.FailureMsg{}},
		{Resource: "y", To: 0, Msg: mutex.FailureMsg{}},
	}
	if err := h.injectBatch(batch); err != nil {
		t.Fatal(err)
	}
	h.awaitDelivered(t, map[string]int{"remote-opened": 1, "x": 2, "y": 1})
}

func TestInjectRejectsInvalidResource(t *testing.T) {
	h := newTestHost(t)
	tooLong := strings.Repeat("n", resource.MaxNameLength+1)
	err := h.inject(mutex.Envelope{Resource: tooLong, To: 0, Msg: mutex.FailureMsg{}})
	if err == nil {
		t.Fatal("oversized inbound resource accepted")
	}
	if h.builds.Load() != 0 {
		t.Error("invalid resource still instantiated")
	}
}

func TestManagerClose(t *testing.T) {
	h := newTestHost(t)
	if _, err := h.lock("a"); err != nil {
		t.Fatal(err)
	}
	h.close()
	select {
	case <-h.doneC:
	default:
		t.Error("close did not stop the site's loop")
	}
	if _, err := h.lock("b"); !errors.Is(err, resource.ErrClosed) {
		t.Errorf("lock after close = %v, want ErrClosed", err)
	}
	if err := h.inject(mutex.Envelope{Resource: "c", Msg: mutex.FailureMsg{}}); !errors.Is(err, resource.ErrClosed) {
		t.Errorf("inject after close = %v, want ErrClosed", err)
	}
	h.close() // idempotent
}

func TestEachAndResources(t *testing.T) {
	h := newTestHost(t)
	for _, name := range []string{"b", "a", "c"} {
		if _, err := h.lock(name); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.resources(); fmt.Sprint(got) != fmt.Sprint([]string{"", "a", "b", "c"}) {
		t.Errorf("resources() = %q", got)
	}
	if got := len(h.nodes()); got != 4 {
		t.Errorf("nodes() holds %d instances, want 4 (the default and three named)", got)
	}
}

// TestConcurrentLockCreation hammers handle creation for overlapping names
// from many goroutines; with -race this exercises the lock-free read path
// against builds.
func TestConcurrentLockCreation(t *testing.T) {
	h := newTestHost(t)
	const goroutines = 16
	const names = 32
	var wg sync.WaitGroup
	handles := make([][]*resource.Lock, goroutines)
	for g := 0; g < goroutines; g++ {
		handles[g] = make([]*resource.Lock, names)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < names; i++ {
				l, err := h.lock(fmt.Sprintf("lock-%d", i))
				if err != nil {
					t.Error(err)
					return
				}
				handles[g][i] = l
			}
		}()
	}
	wg.Wait()
	for i := 0; i < names; i++ {
		for g := 1; g < goroutines; g++ {
			if handles[g][i] != handles[0][i] {
				t.Fatalf("non-canonical handle for lock-%d", i)
			}
		}
	}
	if got := h.builds.Load(); got != names {
		t.Errorf("factory ran %d times, want %d", got, names)
	}
}
