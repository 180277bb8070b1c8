package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dqmx"
)

// lockName is the one lock every live workload contends for.
const lockName = "hot"

// acquireDeadline bounds every Acquire so a wedge is a counted failure, not
// a hung run.
const acquireDeadline = 5 * time.Second

// sampleCap is the fixed number of CS samples a window can record. The
// slice is allocated and touched before the warm-up, so the loader's
// share of peak RSS (16 MB) is the same whatever the system's throughput;
// 512k samples cover 87k CS/s over a 6 s window, four times what the
// fastest workload does today.
const sampleCap = 512 << 10

// rssAtCS is the completed-CS count (set-up and warm-up included) at which a
// live repetition reads its peak RSS. Taken at the end of the window instead,
// the reading would cover more work on a faster host or a faster program:
// service-heavy keeps about 0.5 KB per CS, so its end-of-window peak follows
// its throughput (and a speed-up would read as a regression). Every live
// workload passes 32k CS in the first half of a 1 s + 6 s repetition.
const rssAtCS = 32 << 10

// deployment is a running system and the handles the loader drives: one
// lock handle per requester, all naming the same lock.
type deployment struct {
	locks []*dqmx.Lock
	// arbiter[i] is the site whose protocol instance serves requester i:
	// the site itself on the site workloads, the dialed arbiter on the
	// service workload. The traced pass pairs loader spans with that
	// site's events.
	arbiter []int
	// snapshot sums the per-process metrics collectors; valid only when
	// the deployment was built with Observe.Metrics.
	snapshot func() dqmx.MetricsSnapshot
	// arbiterLock is, on the service deployment, the first dialed arbiter's
	// own handle for the hot lock: the session probe's baseline.
	arbiterLock *dqmx.Lock
	close       func()
}

// liveOptions are the options every live deployment shares. observe is the
// zero value on end-to-end runs, which is how production runs.
func liveOptions(q dqmx.Quorum, observe dqmx.ObserveConfig) dqmx.Options {
	return dqmx.Options{Protocol: dqmx.DelayOptimal, Quorum: q, Observe: observe}
}

func deployInproc(n int, observe dqmx.ObserveConfig) (*deployment, error) {
	c, err := dqmx.NewClusterWith(n, liveOptions(dqmx.GridQuorums, observe))
	if err != nil {
		return nil, err
	}
	d := &deployment{close: c.Close}
	d.snapshot = func() dqmx.MetricsSnapshot { s, _ := c.Snapshot(); return s }
	for i := 0; i < n; i++ {
		l, err := c.LockOn(dqmx.SiteID(i), lockName)
		if err != nil {
			c.Close()
			return nil, err
		}
		d.locks = append(d.locks, l)
		d.arbiter = append(d.arbiter, i)
	}
	return d, nil
}

// reserveAddrs picks n free loopback addresses by binding and releasing
// them, so every peer can be born with the full address book.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve address: %w", err)
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs, nil
}

func addressBook(addrs []string, self int) map[dqmx.SiteID]string {
	book := make(map[dqmx.SiteID]string, len(addrs)-1)
	for j, a := range addrs {
		if j != self {
			book[dqmx.SiteID(j)] = a
		}
	}
	return book
}

// mergeSnapshots sums the counters the benchmark reads across per-process
// collectors (every TCP peer and arbiter owns one).
func mergeSnapshots(snaps []dqmx.MetricsSnapshot) dqmx.MetricsSnapshot {
	out := dqmx.MetricsSnapshot{ByKind: map[string]uint64{}}
	for _, s := range snaps {
		out.Events += s.Events
		out.Messages += s.Messages
		out.Exits += s.Exits
		for k, v := range s.ByKind {
			out.ByKind[k] += v
		}
		out.Transport.Retransmits += s.Transport.Retransmits
		out.Transport.DupSuppressed += s.Transport.DupSuppressed
		out.Transport.AcksSent += s.Transport.AcksSent
		out.Sessions.Overloaded += s.Sessions.Overloaded
		out.Sessions.Expired += s.Sessions.Expired
	}
	return out
}

func deployTCP(n int, observe dqmx.ObserveConfig) (*deployment, error) {
	addrs, err := reserveAddrs(n)
	if err != nil {
		return nil, err
	}
	opts := liveOptions(dqmx.GridQuorums, observe)
	opts.Wire.Codec = dqmx.BinaryCodec
	var peers []*dqmx.TCPPeer
	d := &deployment{}
	d.close = func() {
		for _, p := range peers {
			p.Close()
		}
	}
	d.snapshot = func() dqmx.MetricsSnapshot {
		snaps := make([]dqmx.MetricsSnapshot, len(peers))
		for i, p := range peers {
			snaps[i], _ = p.Snapshot()
		}
		return mergeSnapshots(snaps)
	}
	for i := 0; i < n; i++ {
		p, err := dqmx.NewTCPNode(n, dqmx.SiteID(i), addrs[i], addressBook(addrs, i), opts)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("start peer %d: %w", i, err)
		}
		peers = append(peers, p)
		l, err := p.Lock(lockName)
		if err != nil {
			d.close()
			return nil, err
		}
		d.locks = append(d.locks, l)
		d.arbiter = append(d.arbiter, i)
	}
	return d, nil
}

// deployService starts 3 arbiters over a majority coterie and dials one
// session to each of the arbiters named in dial.
func deployService(dial []int, observe dqmx.ObserveConfig) (*deployment, error) {
	const n = 3
	addrs, err := reserveAddrs(n)
	if err != nil {
		return nil, err
	}
	opts := liveOptions(dqmx.MajorityQuorums, observe)
	opts.Wire.Codec = dqmx.BinaryCodec
	var (
		srvs     []*dqmx.Server
		sessions []*dqmx.Session
	)
	d := &deployment{}
	d.close = func() {
		for _, s := range sessions {
			_ = s.Close() // the arbiters go down next; a lost bye is harmless
		}
		for _, s := range srvs {
			s.Close()
		}
	}
	d.snapshot = func() dqmx.MetricsSnapshot {
		snaps := make([]dqmx.MetricsSnapshot, len(srvs))
		for i, s := range srvs {
			snaps[i], _ = s.Snapshot()
		}
		return mergeSnapshots(snaps)
	}
	for i := 0; i < n; i++ {
		s, err := dqmx.Serve(dqmx.ServeConfig{
			N: n, ID: dqmx.SiteID(i),
			PeerListen: addrs[i], Peers: addressBook(addrs, i),
			ClientListen: "127.0.0.1:0",
			Options:      opts,
		})
		if err != nil {
			d.close()
			return nil, fmt.Errorf("start arbiter %d: %w", i, err)
		}
		srvs = append(srvs, s)
	}
	if d.arbiterLock, err = srvs[dial[0]].Lock(lockName); err != nil {
		d.close()
		return nil, err
	}
	for _, a := range dial {
		ctx, cancel := context.WithTimeout(context.Background(), acquireDeadline)
		s, err := dqmx.Dial(ctx, []string{srvs[a].ClientAddr()}, dqmx.DialConfig{Codec: dqmx.BinaryCodec})
		cancel()
		if err != nil {
			d.close()
			return nil, fmt.Errorf("dial arbiter %d: %w", a, err)
		}
		sessions = append(sessions, s)
		l, err := s.Lock(lockName)
		if err != nil {
			d.close()
			return nil, err
		}
		d.locks = append(d.locks, l)
		d.arbiter = append(d.arbiter, a)
	}
	return d, nil
}

// csSample is one critical section as the loader saw it, in nanoseconds on
// the loader's monotonic clock.
type csSample struct {
	acqStart int64 // Acquire called
	acqEnd   int64 // Acquire returned
	relStart int64 // Release called
	relNanos int32 // Release call duration
	who      int32 // requester index
}

// opContext is a reusable stand-in for context.WithTimeout: one per
// requester, re-armed before each Acquire, expired by the loader's watchdog.
// It keeps the per-operation deadline without a timer and an allocation per
// Acquire, which would otherwise be charged to the system's CPU and
// allocation counts.
type opContext struct {
	started atomic.Int64 // op start on the loader clock; 0 when idle

	mu      sync.Mutex // orders expire against rearm
	done    chan struct{}
	expired bool
}

func newOpContext() *opContext { return &opContext{done: make(chan struct{})} }

func (c *opContext) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *opContext) Value(any) any               { return nil }

func (c *opContext) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done
}

func (c *opContext) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.expired {
		return context.DeadlineExceeded
	}
	return nil
}

// expire ends the operation in flight, if it is still the one that began
// at started.
func (c *opContext) expire(started int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.expired && c.started.Load() == started {
		c.expired = true
		close(c.done)
	}
}

// rearm readies an expired context for the requester's next operation.
func (c *opContext) rearm() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.expired {
		c.expired = false
		c.done = make(chan struct{})
	}
}

// loader drives the requesters and records what they see.
type loader struct {
	// ctxs holds one reusable deadline context per requester; quit and
	// watching stop and await the watchdog that expires them.
	ctxs     []*opContext
	quit     chan struct{}
	watching sync.WaitGroup

	samples []csSample
	stored  int // samples recorded; written inside the CS only
	// counter is the shared variable the lock protects: deliberately plain,
	// so lost updates under a mutual-exclusion violation show as
	// counter != completed.
	counter int64
	inside  atomic.Int32
	// winStart/winEnd bound the measure window on the loader clock; zero
	// until the warm-up ends.
	winStart, winEnd atomic.Int64
	stop             atomic.Bool

	attempted  atomic.Int64 // Acquire calls, warm-up included
	completed  atomic.Int64 // CS completed, warm-up included
	inWindow   atomic.Int64 // CS whose Acquire returned inside the window
	failures   atomic.Int64 // Acquire/Release errors and timeouts
	violations atomic.Int64 // "inside" gauge read other than 1

	// rssMB is the peak RSS as the rssAtCS-th CS completed, written by the
	// one requester that completed it; 0 while fewer have completed.
	rssMB  float64
	rssErr error
}

// newLoader readies a loader for the given number of requesters and starts
// its deadline watchdog; shutdown stops it.
func newLoader(requesters int) *loader {
	l := &loader{quit: make(chan struct{})}
	for i := 0; i < requesters; i++ {
		l.ctxs = append(l.ctxs, newOpContext())
	}
	l.watching.Add(1)
	go func() { defer l.watching.Done(); l.watchdog() }()
	return l
}

func (l *loader) shutdown() {
	close(l.quit)
	l.watching.Wait()
}

// reserve allocates the sample buffer and touches every page of it, after
// set-up has been timed and before the warm-up begins.
func (l *loader) reserve() {
	l.samples = make([]csSample, sampleCap)
	for i := range l.samples {
		l.samples[i].who = -1
	}
}

// cycle runs one Acquire → CS → Release through lock as requester who.
func (l *loader) cycle(lock *dqmx.Lock, who int) {
	ctx := l.ctxs[who]
	l.attempted.Add(1)
	t0 := now()
	ctx.started.Store(t0)
	err := lock.Acquire(ctx)
	t1 := now()
	ctx.started.Store(0)
	if err != nil {
		l.failures.Add(1)
		ctx.rearm()
		return
	}
	if l.inside.Add(1) != 1 {
		l.violations.Add(1)
	}
	l.counter++
	ws, we := l.winStart.Load(), l.winEnd.Load()
	measured := ws != 0 && t1 >= ws && t1 < we
	slot := -1
	if measured && l.stored < len(l.samples) {
		slot = l.stored
		l.stored++
	}
	l.inside.Add(-1)
	t2 := now()
	err = lock.Release()
	t3 := now()
	if err != nil {
		l.failures.Add(1)
	}
	// The slot was claimed inside the CS, so it is this goroutine's alone.
	if slot >= 0 {
		l.samples[slot] = csSample{acqStart: t0, acqEnd: t1, relStart: t2, relNanos: int32(t3 - t2), who: int32(who)}
	}
	if measured {
		l.inWindow.Add(1)
	}
	if l.completed.Add(1) == rssAtCS {
		l.rssMB, l.rssErr = peakRSSMB()
	}
}

// watchdog expires any Acquire older than acquireDeadline until quit closes.
func (l *loader) watchdog() {
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-l.quit:
			return
		case <-tick.C:
			t := now()
			for _, c := range l.ctxs {
				if s := c.started.Load(); s != 0 && t-s > int64(acquireDeadline) {
					c.expire(s)
				}
			}
		}
	}
}

// loadShape says how the requesters use the handles.
type loadShape int

const (
	// heavy: one goroutine per handle, each in a closed Acquire→Release
	// loop with no think time — the paper's heavy-load model.
	heavy loadShape = iota
	// light: one goroutine walks the handles round-robin, so there is never
	// a second request outstanding — the paper's light-load model.
	light
)

// window is what one measured run achieved.
type window struct {
	warmup      time.Duration // achieved, not requested
	measure     time.Duration // the interval CS were counted in
	cpu         time.Duration // process user+sys CPU over the window
	ctxSwitches int64         // voluntary + involuntary over the window
	mem         memDelta      // allocation and GC deltas over it; goroutines at its end
}

// run drives the deployment through the warm-up and the measure window.
// order is the seeded order in which requesters start (heavy) or are walked
// (light).
func (l *loader) run(d *deployment, shape loadShape, order []int, warmup, measure time.Duration) window {
	var wg sync.WaitGroup
	switch shape {
	case heavy:
		for _, who := range order {
			wg.Add(1)
			go func(who int) {
				defer wg.Done()
				for !l.stop.Load() {
					l.cycle(d.locks[who], who)
				}
			}(who)
		}
	case light:
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !l.stop.Load(); i++ {
				who := order[i%len(order)]
				l.cycle(d.locks[who], who)
			}
		}()
	}

	t0 := time.Now()
	time.Sleep(warmup)
	var w window
	w.warmup = time.Since(t0)
	ws := now()
	ru0, mem0 := readRusage(), readMem()
	l.winEnd.Store(ws + int64(measure))
	l.winStart.Store(ws)
	time.Sleep(time.Duration(ws+int64(measure)-now()) + time.Millisecond)
	ru1, mem1 := readRusage(), readMem()
	w.measure = measure
	w.cpu = ru1.cpu - ru0.cpu
	w.ctxSwitches = ru1.ctxSwitches - ru0.ctxSwitches
	w.mem = mem1.sub(mem0)
	l.stop.Store(true)
	wg.Wait()
	return w
}

// seededOrder is the permutation of 0..n-1 a seed stands for.
func seededOrder(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}
