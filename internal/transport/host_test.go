package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dqmx/internal/core"
	"dqmx/internal/coterie"
	"dqmx/internal/membership"
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
	th.host = newHost(0, factory, nopSender{}, nil, nil, nil, &stage, newDeadSet(), func(env mutex.Envelope) {
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
	h.awaitDelivered(t, map[string]int{"remote-opened": 1})
	if got := h.resources(); fmt.Sprint(got) != fmt.Sprint([]string{"", "remote-opened"}) {
		t.Fatalf("resources after an inbound envelope = %q, want the default and %q", got, "remote-opened")
	}

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

// TestInjectRejectsInvalidResource: the site's loop drops a frame for a
// name that fails CheckName, building nothing, and steps the frames behind
// it.
func TestInjectRejectsInvalidResource(t *testing.T) {
	h := newTestHost(t)
	tooLong := strings.Repeat("n", resource.MaxNameLength+1)
	if err := h.injectBatch([]mutex.Envelope{
		{Resource: tooLong, To: 0, Msg: mutex.FailureMsg{}},
		{Resource: "valid", To: 0, Msg: mutex.FailureMsg{}},
	}); err != nil {
		t.Fatal(err)
	}
	h.awaitDelivered(t, map[string]int{"valid": 1})
	if got := h.resources(); fmt.Sprint(got) != fmt.Sprint([]string{"", "valid"}) {
		t.Errorf("resources = %q: the oversized inbound resource was instantiated", got)
	}
	if got := h.builds.Load(); got != 1 {
		t.Errorf("factory ran %d times, want 1 (the valid name only)", got)
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

// TestDumpListsLocksByName: a site's dump lists its locks in name order, so
// two dumps of one state read the same whatever order the lock table holds
// them in.
func TestDumpListsLocksByName(t *testing.T) {
	c, err := NewClusterConfig(ClusterConfig{Algorithm: core.Algorithm{}, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, name := range []string{"m", "c", "q", "a", "x", "f", "k", "b", "z", "h", "t", "e"} {
		if _, err := c.Lock(0, name); err != nil {
			t.Fatal(err)
		}
	}
	var names []string
	for _, line := range strings.Split(c.DumpState(), "\n") {
		if name, _, ok := strings.Cut(strings.TrimPrefix(line, "["), "] site 0:"); ok && strings.HasPrefix(line, "[") {
			names = append(names, name)
		}
	}
	want := []string{"(default)", "a", "b", "c", "e", "f", "h", "k", "m", "q", "t", "x", "z"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("site 0 dumps its locks as %q, want %q", names, want)
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

// TestRetiringSiteRefusesNewLocks: a departing site takes no new work on
// any lock — neither on the default resource's instance nor on a lock first
// opened after the site began to leave, which a mark on each existing
// instance would never reach. The other sites keep serving the new lock.
func TestRetiringSiteRefusesNewLocks(t *testing.T) {
	c, err := NewClusterConfig(ClusterConfig{
		Algorithm:    core.Algorithm{Construction: coterie.Majority{}},
		N:            7,
		Construction: coterie.Majority{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const leaving = mutex.SiteID(6)
	c.host(leaving).retire()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Node(leaving).Acquire(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("default resource at the departing site: Acquire = %v, want ErrClosed", err)
	}
	fresh, err := c.Lock(leaving, "fresh")
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Acquire(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("never-used lock at the departing site: Acquire = %v, want ErrClosed", err)
	}
	if !c.host(leaving).quiesced() {
		t.Error("the refused acquires left work in flight at the departing site")
	}
	survivor, err := c.Lock(0, "fresh")
	if err != nil {
		t.Fatal(err)
	}
	if err := survivor.Acquire(ctx); err != nil {
		t.Fatalf("site 0 on the same lock: %v", err)
	}
	if err := survivor.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestSiteCallsQueueOneItem: installing a membership, the settle barrier,
// retiring, the drain check and a dump each cost one item on the site's
// loop, however many locks the site hosts. The loop is parked while a call
// runs; the test steps what the call queues itself and counts it.
func TestSiteCallsQueueOneItem(t *testing.T) {
	c, err := NewClusterConfig(ClusterConfig{
		Algorithm:    core.Algorithm{Construction: coterie.Majority{}},
		N:            3,
		Construction: coterie.Majority{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := c.host(0)
	for i := range 20 {
		if _, err := c.Lock(0, fmt.Sprintf("lock-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	stage, err := membership.NewConfig(1, coterie.Majority{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := stage.Member(0)
	h.adopt(m)
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"install", func() {
			if err := h.install(m); err != nil {
				t.Error(err)
			}
		}},
		{"settled", func() { h.settled() }},
		{"quiesced", func() { h.quiesced() }},
		{"dump", func() { h.dump(new(strings.Builder)) }},
		{"retire", h.retire},
	} {
		if got := itemsQueuedBy(h, tc.call); got != 1 {
			t.Errorf("%s over %d instances queued %d loop items, want 1", tc.name, len(h.nodes()), got)
		}
	}
}

// itemsQueuedBy runs call while h's loop is parked in a control item, steps
// every item the call queues on this goroutine (the parked loop touches
// nothing meanwhile) and returns how many there were.
func itemsQueuedBy(h *host, call func()) int {
	parked, resume := make(chan struct{}), make(chan struct{})
	go h.onLoop(func() {
		close(parked)
		<-resume
	})
	<-parked
	defer close(resume)
	done := make(chan struct{})
	go func() {
		call()
		close(done)
	}()
	count := 0
	for {
		h.inbox.mu.Lock()
		queued := h.inbox.items
		h.inbox.items = nil
		h.inbox.mu.Unlock()
		for i := range queued {
			count++
			h.step(&queued[i])
		}
		select {
		case <-done:
			return count
		case <-time.After(time.Millisecond):
		}
	}
}
