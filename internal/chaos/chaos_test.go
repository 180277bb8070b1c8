package chaos

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"dqmx/internal/clock"
	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
	"dqmx/internal/obs"
	"dqmx/internal/timestamp"
)

type fakeMsg struct{ kind string }

func (m fakeMsg) Kind() string { return m.kind }

// collect runs a fixed per-stream traffic pattern through a fabric and
// returns the envelopes that survived, keyed by stream.
func collect(t *testing.T, plan Plan, perStream int) map[streamKey][]mutex.Envelope {
	t.Helper()
	var mu sync.Mutex
	got := make(map[streamKey][]mutex.Envelope)
	f := NewFabric(plan, func(env mutex.Envelope) error {
		mu.Lock()
		key := streamKey{resource: env.Resource, from: env.From, to: env.To}
		got[key] = append(got[key], env)
		mu.Unlock()
		return nil
	}, clock.Real)
	for i := 0; i < perStream; i++ {
		for from := mutex.SiteID(0); from < 3; from++ {
			for to := mutex.SiteID(0); to < 3; to++ {
				if from == to {
					continue
				}
				if err := f.Send(mutex.Envelope{Resource: "r", From: from, To: to, Msg: fakeMsg{mutex.KindRequest}}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Drain: wait out the largest possible delay plus reorder hold-back.
	time.Sleep(3*plan.MaxDelay + 20*time.Millisecond)
	f.Close()
	return got
}

// TestFabricDeterministicPerStream is the replay contract: the same plan
// must keep or drop exactly the same per-stream message positions across
// runs, regardless of goroutine scheduling.
func TestFabricDeterministicPerStream(t *testing.T) {
	plan := Plan{Seed: 42, Drop: 0.3, Duplicate: 0.2}
	first := collect(t, plan, 50)
	for run := 0; run < 3; run++ {
		again := collect(t, plan, 50)
		for key, envs := range first {
			if len(again[key]) != len(envs) {
				t.Fatalf("stream %v: run delivered %d envelopes, first run %d",
					key, len(again[key]), len(envs))
			}
		}
	}
	// A different seed must make different decisions somewhere.
	other := collect(t, Plan{Seed: 43, Drop: 0.3, Duplicate: 0.2}, 50)
	same := true
	for key, envs := range first {
		if len(other[key]) != len(envs) {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical per-stream outcomes")
	}
}

// TestFabricQuietPassThrough: a zero plan must deliver everything, in
// order, with no duplication.
func TestFabricQuietPassThrough(t *testing.T) {
	got := collect(t, Plan{}, 20)
	if len(got) != 6 {
		t.Fatalf("expected 6 streams, got %d", len(got))
	}
	for key, envs := range got {
		if len(envs) != 20 {
			t.Fatalf("stream %v: %d of 20 delivered by a quiet fabric", key, len(envs))
		}
	}
}

// TestFabricFIFOWithoutReorder: plain bounded delay must preserve each
// stream's FIFO order (the protocol's channel model).
func TestFabricFIFOWithoutReorder(t *testing.T) {
	var mu sync.Mutex
	var got []int
	f := NewFabric(Plan{Seed: 7, MinDelay: 100 * time.Microsecond, MaxDelay: 2 * time.Millisecond},
		func(env mutex.Envelope) error {
			mu.Lock()
			got = append(got, int(env.Msg.(seqMsg)))
			mu.Unlock()
			return nil
		}, clock.Real)
	const n = 40
	for i := 0; i < n; i++ {
		if err := f.Send(mutex.Envelope{From: 0, To: 1, Msg: seqMsg(i)}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	f.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated without Reorder: position %d got %d", i, v)
		}
	}
}

type seqMsg int

func (seqMsg) Kind() string { return "seq" }

// TestFabricPartitionWindow: messages crossing the cut during the window
// are lost, messages after healing flow again.
func TestFabricPartitionWindow(t *testing.T) {
	var mu sync.Mutex
	var got []mutex.Envelope
	plan := Plan{
		Seed:       1,
		Partitions: []Partition{{Start: 0, End: 30 * time.Millisecond, Group: []mutex.SiteID{1}}},
	}
	f := NewFabric(plan, func(env mutex.Envelope) error {
		mu.Lock()
		got = append(got, env)
		mu.Unlock()
		return nil
	}, clock.Real)
	defer f.Close()
	// Crossing the cut: dropped. Inside the group (1->1 is filtered by the
	// protocol anyway) and outside (0->2): delivered.
	_ = f.Send(mutex.Envelope{From: 0, To: 1, Msg: fakeMsg{"a"}})
	_ = f.Send(mutex.Envelope{From: 1, To: 0, Msg: fakeMsg{"b"}})
	_ = f.Send(mutex.Envelope{From: 0, To: 2, Msg: fakeMsg{"c"}})
	time.Sleep(40 * time.Millisecond)
	_ = f.Send(mutex.Envelope{From: 0, To: 1, Msg: fakeMsg{"d"}})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("expected 2 deliveries (c during cut, d after heal), got %d: %v", len(got), got)
	}
	if got[0].Msg.Kind() != "c" || got[1].Msg.Kind() != "d" {
		t.Fatalf("wrong survivors: %v", got)
	}
}

// TestFabricCrashSilences: a marked-crashed site neither sends nor
// receives.
func TestFabricCrashSilences(t *testing.T) {
	var mu sync.Mutex
	count := 0
	f := NewFabric(Plan{Seed: 1}, func(env mutex.Envelope) error {
		mu.Lock()
		count++
		mu.Unlock()
		return nil
	}, clock.Real)
	defer f.Close()
	f.MarkCrashed(2)
	_ = f.Send(mutex.Envelope{From: 2, To: 0, Msg: fakeMsg{"x"}})
	_ = f.Send(mutex.Envelope{From: 0, To: 2, Msg: fakeMsg{"x"}})
	_ = f.Send(mutex.Envelope{From: 0, To: 1, Msg: fakeMsg{"x"}})
	mu.Lock()
	defer mu.Unlock()
	if count != 1 {
		t.Fatalf("expected only the 0->1 delivery, got %d", count)
	}
}

func ts(seq uint64, site mutex.SiteID) timestamp.Timestamp {
	return timestamp.Timestamp{Seq: seq, Site: site}
}

// TestCheckerDoubleHolder: overlapping CS entries on one resource are a
// safety violation; entries on different resources are independent.
func TestCheckerDoubleHolder(t *testing.T) {
	c := NewChecker()
	c.Observe(obs.Event{Type: obs.EventEnter, Site: 0, Resource: "a"})
	c.Observe(obs.Event{Type: obs.EventEnter, Site: 1, Resource: "b"})
	if n := len(c.Violations()); n != 0 {
		t.Fatalf("independent resources flagged: %v", c.Violations())
	}
	c.Observe(obs.Event{Type: obs.EventEnter, Site: 2, Resource: "a"})
	vs := c.Violations()
	if len(vs) != 1 || vs[0].Kind != "safety" {
		t.Fatalf("expected one safety violation, got %v", vs)
	}
	// After the holder exits, a new entry is clean again.
	c.Observe(obs.Event{Type: obs.EventExit, Site: 2, Resource: "a"})
	c.Observe(obs.Event{Type: obs.EventEnter, Site: 0, Resource: "a"})
	if n := len(c.Violations()); n != 1 {
		t.Fatalf("clean handover flagged: %v", c.Violations())
	}
}

// requestWave replays one request's full lifecycle prefix into the checker:
// issue, send the wave, deliver it.
func requestWave(c *Checker, site mutex.SiteID, reqTS timestamp.Timestamp, arbiters []mutex.SiteID) {
	c.Observe(obs.Event{Type: obs.EventRequest, Site: site, Resource: "r", ReqTS: reqTS})
	for _, a := range arbiters {
		c.Observe(obs.Event{Type: obs.EventSend, Site: site, Peer: a, Kind: mutex.KindRequest, Resource: "r"})
	}
	for _, a := range arbiters {
		c.Delivered(mutex.Envelope{Resource: "r", From: site, To: a, Msg: fakeMsg{mutex.KindRequest}})
	}
}

// TestCheckerOrdering: a later, larger-timestamp request entering over a
// settled earlier request is a violation; the same entry is legal while the
// earlier request's wave is still in flight.
func TestCheckerOrdering(t *testing.T) {
	arbs := []mutex.SiteID{3, 4}

	c := NewChecker()
	requestWave(c, 0, ts(1, 0), arbs) // settled low-ts request
	requestWave(c, 1, ts(5, 1), arbs) // issued strictly after 0 settled
	c.Observe(obs.Event{Type: obs.EventEnter, Site: 1, Resource: "r"})
	vs := c.Violations()
	if len(vs) != 1 || vs[0].Kind != "order" {
		t.Fatalf("expected one order violation, got %v", vs)
	}

	// In-flight variant: site 0's wave has an undelivered request message,
	// so overtaking it is legal (the arbiter may simply not know yet).
	c = NewChecker()
	c.Observe(obs.Event{Type: obs.EventRequest, Site: 0, Resource: "r", ReqTS: ts(1, 0)})
	for _, a := range arbs {
		c.Observe(obs.Event{Type: obs.EventSend, Site: 0, Peer: a, Kind: mutex.KindRequest, Resource: "r"})
	}
	c.Delivered(mutex.Envelope{Resource: "r", From: 0, To: 3, Msg: fakeMsg{mutex.KindRequest}})
	requestWave(c, 1, ts(5, 1), arbs)
	c.Observe(obs.Event{Type: obs.EventEnter, Site: 1, Resource: "r"})
	if vs := c.Violations(); len(vs) != 0 {
		t.Fatalf("in-flight overtake flagged: %v", vs)
	}

	// Entry in timestamp order is always clean.
	c = NewChecker()
	requestWave(c, 0, ts(1, 0), arbs)
	requestWave(c, 1, ts(5, 1), arbs)
	c.Observe(obs.Event{Type: obs.EventEnter, Site: 0, Resource: "r"})
	if vs := c.Violations(); len(vs) != 0 {
		t.Fatalf("in-order entry flagged: %v", vs)
	}
}

// TestCheckerCrashedHolder: a failure notification for the current holder
// must clear the hold so the §6 regrant is not a false double entry, and
// remove the site's pending request from watchdog consideration.
func TestCheckerCrashedHolder(t *testing.T) {
	c := NewChecker()
	c.Observe(obs.Event{Type: obs.EventRequest, Site: 0, Resource: "r", ReqTS: ts(1, 0)})
	c.Observe(obs.Event{Type: obs.EventEnter, Site: 0, Resource: "r"})
	c.Observe(obs.Event{Type: obs.EventRequest, Site: 1, Resource: "r", ReqTS: ts(2, 1)})
	c.Observe(obs.Event{Type: obs.EventFailure, Site: 2, Peer: 0, Resource: "r"})
	c.Observe(obs.Event{Type: obs.EventEnter, Site: 1, Resource: "r"})
	if vs := c.Violations(); len(vs) != 0 {
		t.Fatalf("regrant after crash flagged: %v", vs)
	}
	if stalls := c.Stalled(0); len(stalls) != 0 {
		t.Fatalf("crashed/served sites still stalled: %v", stalls)
	}
}

// TestCheckerBounds: the per-CS message accounting against explicit bounds.
func TestCheckerBounds(t *testing.T) {
	c := NewChecker()
	for i := 0; i < 12; i++ {
		c.Observe(obs.Event{Type: obs.EventSend, Site: 0, Peer: 1, Kind: mutex.KindReply, Resource: "r"})
	}
	c.Observe(obs.Event{Type: obs.EventEnter, Site: 0, Resource: "r"})
	c.Observe(obs.Event{Type: obs.EventExit, Site: 0, Resource: "r"})
	c.CheckBounds(6, 12) // 12 per CS: inside
	if vs := c.Violations(); len(vs) != 0 {
		t.Fatalf("in-bound run flagged: %v", vs)
	}
	c.CheckBounds(6, 11) // now outside
	vs := c.Violations()
	if len(vs) != 1 || vs[0].Kind != "bound" {
		t.Fatalf("expected one bound violation, got %v", vs)
	}
}

// TestCheckerReportsInOrder: the stall list and the bound violations come out
// by (resource, site), whatever order the checker's maps iterate in, so one
// seed reports the same result on every run.
func TestCheckerReportsInOrder(t *testing.T) {
	c := NewChecker()
	for _, r := range []struct {
		site     mutex.SiteID
		resource string
	}{{7, "b"}, {2, "b"}, {5, "a"}, {3, "a"}} {
		c.Observe(obs.Event{Type: obs.EventRequest, Site: r.site, Resource: r.resource, ReqTS: ts(1, r.site)})
		c.Observe(obs.Event{Type: obs.EventSend, Site: r.site, Peer: 0, Kind: mutex.KindRequest, Resource: r.resource})
	}
	want := []Stall{{Resource: "a", Site: 3}, {Resource: "a", Site: 5}, {Resource: "b", Site: 2}, {Resource: "b", Site: 7}}
	for call := 0; call < 20; call++ {
		got := c.Stalled(0)
		for i := range got {
			got[i].Age = 0
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: stalls %v, want %v", call, got, want)
		}
	}

	for _, name := range []string{"d", "c", "f", "e"} {
		c.Observe(obs.Event{Type: obs.EventSend, Site: 0, Peer: 1, Kind: mutex.KindReply, Resource: name})
		c.Observe(obs.Event{Type: obs.EventEnter, Site: 0, Resource: name})
		c.Observe(obs.Event{Type: obs.EventExit, Site: 0, Resource: name})
	}
	for call := 0; call < 20; call++ {
		c.CheckBounds(6, 12)
	}
	vs := c.Violations()
	if len(vs) != 80 {
		t.Fatalf("%d bound violations, want 4 per call", len(vs))
	}
	for i, v := range vs {
		if want := []string{"c", "d", "e", "f"}[i%4]; v.Resource != want {
			t.Fatalf("violation %d names resource %q, want %q: %v", i, v.Resource, want, vs[:4])
		}
	}
}

// TestMessageBounds: derived from the coterie's min/max quorum size.
func TestMessageBounds(t *testing.T) {
	assign, err := coterie.Grid{}.Assign(9) // 3x3 grid: every quorum K=5
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := MessageBounds(assign)
	if lo != 12 || hi != 24 {
		t.Fatalf("grid-9 bounds: got [%v,%v], want [12,24]", lo, hi)
	}
}

// TestWatchdogReportsStall: a pending request older than patience triggers
// exactly one report carrying the dump.
func TestWatchdogReportsStall(t *testing.T) {
	c := NewChecker()
	c.Observe(obs.Event{Type: obs.EventRequest, Site: 4, Resource: "r", ReqTS: ts(1, 4)})
	var mu sync.Mutex
	var reports []string
	w := NewWatchdog(c, time.Millisecond, 5*time.Millisecond,
		func() string { return "dump!" },
		func(s Stall, dump string) {
			mu.Lock()
			reports = append(reports, dump)
			mu.Unlock()
		})
	time.Sleep(30 * time.Millisecond)
	w.Stop()
	mu.Lock()
	defer mu.Unlock()
	if len(reports) != 1 || reports[0] != "dump!" {
		t.Fatalf("expected one stall report with dump, got %v", reports)
	}
}

// TestSeedOverride round-trips the env var.
func TestSeedOverride(t *testing.T) {
	t.Setenv(SeedEnv, "12345")
	seed, ok := SeedOverride()
	if !ok || seed != 12345 {
		t.Fatalf("got (%d,%v)", seed, ok)
	}
	t.Setenv(SeedEnv, "")
	if _, ok := SeedOverride(); ok {
		t.Fatal("empty env read as a seed")
	}
}
