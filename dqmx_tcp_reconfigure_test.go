package dqmx_test

import (
	"context"
	"testing"
	"time"

	"dqmx"
)

// reserveBook reserves loopback addresses for an n-site roster with
// throwaway peers. book(self) is site self's address book: every other site.
func reserveBook(t *testing.T, n int, opts dqmx.Options) (addrs map[dqmx.SiteID]string, book func(self int) map[dqmx.SiteID]string) {
	t.Helper()
	addrs = make(map[dqmx.SiteID]string, n)
	for i := 0; i < n; i++ {
		p, err := dqmx.NewTCPNode(n, dqmx.SiteID(i), "127.0.0.1:0", nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		addrs[dqmx.SiteID(i)] = p.Addr()
		p.Close()
	}
	return addrs, func(self int) map[dqmx.SiteID]string {
		m := make(map[dqmx.SiteID]string)
		for j, a := range addrs {
			if int(j) != self {
				m[j] = a
			}
		}
		return m
	}
}

func closePeers(peers []*dqmx.TCPPeer) {
	for _, p := range peers {
		if p != nil {
			p.Close()
		}
	}
}

// TestTCPHandover drives the operator-facing reconfiguration surface end to
// end over real TCP: a 3-site cluster whose address book already lists two
// future joiners grows to 5 via PlanHandover + ApplyJoint/ApplyFinal — the
// same sequence dqmd's /reconfigure endpoint performs, one phase per site.
func TestTCPHandover(t *testing.T) {
	const oldN, newN = 3, 5
	opts := dqmx.Options{Quorum: dqmx.MajorityQuorums}
	addrs, book := reserveBook(t, newN, opts)

	// The old sites run a 3-site cluster but are deployed with the 5-site
	// address book, as the dqmd docs prescribe for a planned grow.
	peers := make([]*dqmx.TCPPeer, newN)
	defer closePeers(peers)
	for i := 0; i < oldN; i++ {
		p, err := dqmx.NewTCPNode(oldN, dqmx.SiteID(i), addrs[dqmx.SiteID(i)], book(i), opts)
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
		// The protocol size must come from n, not from the oversized book —
		// /reconfigure derives its default "from" size from N().
		if got := p.N(); got != oldN {
			t.Fatalf("site %d: N() = %d with a %d-entry address book, want %d", i, got, newN-1, oldN)
		}
	}

	cycle := func(site int, when string) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := peers[site].Node().Acquire(ctx); err != nil {
			t.Fatalf("site %d acquire %s: %v", site, when, err)
		}
		if err := peers[site].Node().Release(); err != nil {
			t.Fatalf("site %d release %s: %v", site, when, err)
		}
	}
	cycle(0, "before the handover")

	// Step 1: start the joining sites' processes.
	for i := oldN; i < newN; i++ {
		p, err := dqmx.NewTCPNode(newN, dqmx.SiteID(i), addrs[dqmx.SiteID(i)], book(i), opts)
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
	}

	plan, err := dqmx.PlanHandover(0, oldN, dqmx.MajorityQuorums, newN, dqmx.MajorityQuorums)
	if err != nil {
		t.Fatal(err)
	}
	if plan.JointN() != newN || plan.FinalN() != newN {
		t.Fatalf("plan joint n=%d final n=%d, want %d/%d", plan.JointN(), plan.FinalN(), newN, newN)
	}

	// Step 2: joint phase on every site, in any order.
	for i := 0; i < newN; i++ {
		if err := plan.ApplyJoint(peers[i], dqmx.SiteID(i)); err != nil {
			t.Fatalf("apply joint at site %d: %v", i, err)
		}
	}
	for i := 0; i < newN; i++ {
		if got := peers[i].Stage(); got != plan.JointStage() {
			t.Fatalf("site %d at stage %d after joint, want %d", i, got, plan.JointStage())
		}
		if got := peers[i].N(); got != newN {
			t.Fatalf("site %d N() = %d in the joint phase, want %d", i, got, newN)
		}
	}
	// The lock keeps working while every entry takes a quorum of both
	// coteries.
	cycle(1, "during the joint phase")

	// Step 3: final phase on every surviving site.
	for i := 0; i < newN; i++ {
		if err := plan.ApplyFinal(peers[i], dqmx.SiteID(i)); err != nil {
			t.Fatalf("apply final at site %d: %v", i, err)
		}
	}
	for i := 0; i < newN; i++ {
		if got := peers[i].Stage(); got != plan.FinalStage() {
			t.Fatalf("site %d at stage %d after final, want %d", i, got, plan.FinalStage())
		}
	}
	// A joined site is a full participant of the new coterie.
	cycle(newN-1, "after the handover")
	cycle(0, "after the handover")

	// Misapplied phases fail loudly instead of corrupting the roster.
	if err := plan.ApplyJoint(peers[0], dqmx.SiteID(newN)); err == nil {
		t.Fatal("ApplyJoint accepted a site outside the joint roster")
	}
	if err := plan.ApplyFinal(peers[0], dqmx.SiteID(newN)); err == nil {
		t.Fatal("ApplyFinal accepted a site outside the final configuration")
	}
}

// TestTCPHandoverLateLock: a lock first used after the handover runs the
// final req_set at every site, including a site built at the old size. Such
// a site once built the lock's machine on its construction-time majority-3
// quorum, which misses a joiner's majority-5 quorum, so both held it.
func TestTCPHandoverLateLock(t *testing.T) {
	const oldN, newN = 3, 5
	opts := dqmx.Options{Quorum: dqmx.MajorityQuorums}
	addrs, book := reserveBook(t, newN, opts)
	peers := make([]*dqmx.TCPPeer, newN)
	defer closePeers(peers)
	for i := 0; i < newN; i++ {
		n := oldN
		if i >= oldN {
			n = newN // the joiners
		}
		p, err := dqmx.NewTCPNode(n, dqmx.SiteID(i), addrs[dqmx.SiteID(i)], book(i), opts)
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
	}
	plan, err := dqmx.PlanHandover(0, oldN, dqmx.MajorityQuorums, newN, dqmx.MajorityQuorums)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < newN; i++ {
		if err := plan.ApplyJoint(peers[i], dqmx.SiteID(i)); err != nil {
			t.Fatalf("apply joint at site %d: %v", i, err)
		}
	}
	for i := 0; i < newN; i++ {
		if err := plan.ApplyFinal(peers[i], dqmx.SiteID(i)); err != nil {
			t.Fatalf("apply final at site %d: %v", i, err)
		}
	}

	lock := func(site int) *dqmx.Lock {
		t.Helper()
		l, err := peers[site].Lock("late")
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	first, second := lock(1), lock(3)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := first.Acquire(ctx); err != nil {
		t.Fatalf("site 1 acquire: %v", err)
	}
	short, cancelShort := context.WithTimeout(ctx, 500*time.Millisecond)
	defer cancelShort()
	if ok, err := second.TryAcquire(short); err != nil || ok {
		t.Fatalf("site 3 took lock \"late\" while site 1 held it (ok=%v, err=%v)", ok, err)
	}
	if err := first.Release(); err != nil {
		t.Fatal(err)
	}
}
