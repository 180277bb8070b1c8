package sweep

// Session-tier conformance archetypes: the lock-service tier (leased client
// sessions over arbiter coteries) driven through the same seeded chaos
// fabric as the peer-level sweep, with the protocol checker attached as a
// hard oracle. Two schedules ride in the sweep:
//
//   - lease-expiry reclaim: a client crashes mid-hold (no bye, keepalives
//     stop); the arbiter must reclaim at lease expiry and a waiter on a
//     different arbiter must be granted within the lease + handoff bound;
//   - arbiter-crash fail-over: the arbiter a client is attached to dies —
//     session server and protocol site both — so the client must fail over
//     to the second arbiter, observe ErrLockLost on its voided grant, and
//     re-acquire through §6 recovery.
//
// Both are asserted as hard conformance (checker violations fail the test)
// and run under -race via the chaos make target.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"dqmx/internal/chaos"
	"dqmx/internal/core"
	"dqmx/internal/mutex"
	"dqmx/internal/resource"
	"dqmx/internal/session"
	"dqmx/internal/transport"
)

// sessionHarness is one chaos-fabric cluster with a session server bound to
// each of the given sites and the conformance checker observing every
// protocol event.
type sessionHarness struct {
	cluster *transport.Cluster
	checker *chaos.Checker
	addrs   []string
	srvs    []*session.Server
}

func startSessionHarness(t *testing.T, n int, sites []int, lease time.Duration, plan *chaos.Plan) *sessionHarness {
	t.Helper()
	checker := chaos.NewChecker()
	cluster, err := transport.NewClusterConfig(transport.ClusterConfig{
		Algorithm: core.Algorithm{},
		N:         n,
		Observer:  checker.Observe,
		Chaos:     plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	cluster.SetDeliveryHook(checker.Delivered)
	h := &sessionHarness{cluster: cluster, checker: checker}
	for _, site := range sites {
		site := site
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := session.NewServer(session.ServerConfig{
			Site: mutex.SiteID(site),
			Locks: func(name string) (*resource.Lock, error) {
				return h.cluster.Lock(mutex.SiteID(site), name)
			},
			Listener: ln,
			Lease:    lease,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		h.addrs = append(h.addrs, ln.Addr().String())
		h.srvs = append(h.srvs, srv)
	}
	return h
}

// assertConformance fails the test on any checker violation, printing the
// plan and seed so the schedule reproduces.
func (h *sessionHarness) assertConformance(t *testing.T, seed int64, plan *chaos.Plan) {
	t.Helper()
	for _, v := range h.checker.Violations() {
		t.Errorf("seed %d: %s\nplan: %s", seed, v, plan)
	}
}

func sessionDial(t *testing.T, addrs []string, lease time.Duration) *session.Client {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	c, err := session.Dial(ctx, session.ClientConfig{
		Addrs:          addrs,
		Lease:          lease,
		FailoverWindow: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// sessionSweepSeeds picks the per-archetype schedule count: trimmed under
// -short so the chaos make target stays fast, full in the regular sweep.
func sessionSweepSeeds(t *testing.T) []int64 {
	if testing.Short() {
		return []int64{1, 42}
	}
	return []int64{1, 7, 23, 42, 99}
}

// sessionPlan derives the fault fabric for one session schedule: drops and
// delay the reliable sublayer must heal, never a protocol-site crash — the
// archetypes inject their own session-tier faults deterministically.
func sessionPlan(seed int64, lossy bool) *chaos.Plan {
	p := &chaos.Plan{Seed: seed, MaxDelay: 2 * time.Millisecond}
	if lossy {
		p.Drop = 0.05
		p.Reorder = 0.1
	}
	return p
}

// TestSessionConformanceLeaseReclaim is the lease-expiry reclaim archetype:
// a holder crashes without a bye; the lease runs out; the arbiter reclaims
// through an ordinary protocol release, so a waiter queued behind the
// holder on another arbiter is granted through the normal transfer path.
func TestSessionConformanceLeaseReclaim(t *testing.T) {
	const lease = 250 * time.Millisecond
	for _, seed := range sessionSweepSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			plan := sessionPlan(seed, true)
			h := startSessionHarness(t, 3, []int{0, 1}, lease, plan)

			holder := sessionDial(t, h.addrs[:1], lease)
			hl, err := holder.Lock("shared")
			if err != nil {
				t.Fatal(err)
			}
			if err := hl.Acquire(context.Background()); err != nil {
				t.Fatal(err)
			}
			waiter := sessionDial(t, h.addrs[1:], lease)
			wl, err := waiter.Lock("shared")
			if err != nil {
				t.Fatal(err)
			}
			granted := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				defer cancel()
				granted <- wl.Acquire(ctx)
			}()
			time.Sleep(50 * time.Millisecond)
			start := time.Now()
			holder.Abandon()
			select {
			case err := <-granted:
				if err != nil {
					t.Fatalf("seed %d: waiter: %v\nplan: %s", seed, err, plan)
				}
			case <-time.After(20 * time.Second):
				t.Fatalf("seed %d: waiter never granted after holder crash\nplan: %s", seed, plan)
			}
			if elapsed, bound := time.Since(start), lease+5*time.Second; elapsed > bound {
				t.Errorf("seed %d: reclaim took %v, want <= %v\nplan: %s", seed, elapsed, bound, plan)
			}
			if err := wl.Release(); err != nil {
				t.Fatal(err)
			}
			h.assertConformance(t, seed, plan)
		})
	}
}

// TestSessionConformanceArbiterFailover is the arbiter-crash archetype: the
// arbiter a client holds a lock through dies entirely — session server
// closed, protocol site killed — so the surviving sites run §6 recovery
// while the client fails over. The voided grant must surface as
// ErrLockLost, and a re-acquire through the second arbiter must succeed
// against the recovered coterie.
func TestSessionConformanceArbiterFailover(t *testing.T) {
	const lease = 250 * time.Millisecond
	for _, seed := range sessionSweepSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			plan := sessionPlan(seed, false)
			h := startSessionHarness(t, 3, []int{0, 1}, lease, plan)

			c := sessionDial(t, h.addrs, lease)
			l, err := c.Lock("shared")
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Acquire(context.Background()); err != nil {
				t.Fatal(err)
			}
			oldID, oldFence := c.ID(), c.Fence()

			// Kill the arbiter the client is attached to: the session tier
			// stops answering and the protocol site crashes mid-hold, so the
			// lock's release never happens voluntarily — §6 recovery must
			// free it as the surviving sites learn of the failure.
			h.srvs[0].Close()
			h.cluster.KillSite(0, 10*time.Millisecond)

			deadline := time.Now().Add(15 * time.Second)
			for c.ID() == oldID || c.ID() == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("seed %d: client never failed over (id still %d)\nplan: %s", seed, c.ID(), plan)
				}
				time.Sleep(10 * time.Millisecond)
			}
			if fence := c.Fence(); fence <= oldFence {
				t.Errorf("seed %d: fencing token did not advance across failover: %d -> %d", seed, oldFence, fence)
			}
			if err := l.Release(); !errors.Is(err, resource.ErrLockLost) {
				t.Fatalf("seed %d: release after failover: got %v, want ErrLockLost\nplan: %s", seed, err, plan)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			err = l.Acquire(ctx)
			cancel()
			if err != nil {
				t.Fatalf("seed %d: re-acquire after §6 recovery: %v\nplan: %s", seed, err, plan)
			}
			if err := l.Release(); err != nil {
				t.Fatal(err)
			}
			h.assertConformance(t, seed, plan)
		})
	}
}
