//go:build !race

package dqmx_test

import (
	"fmt"
	"testing"

	"dqmx"
)

// TestAllocsFirstLockTCP: a lock first used at a TCP peer of a 9-site grid
// costs its own protocol instance — this site's machine, its node and the
// manager's entry — and nothing per other site: the coterie is assigned
// and validated once per peer, not once per lock, and no other site's
// machine is built. Building all nine machines per lock reads about 66.
func TestAllocsFirstLockTCP(t *testing.T) {
	const budget = 24
	p, err := dqmx.NewTCPNode(9, 0, "127.0.0.1:0", nil, dqmx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	names := make([]string, 256)
	for i := range names {
		names[i] = fmt.Sprintf("lock-%d", i)
	}
	next := 0
	first := func() {
		if _, err := p.Lock(names[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	first()
	if got := testing.AllocsPerRun(200, first); got > budget {
		t.Errorf("first Lock(name) at a 9-site TCP peer: %.0f allocs, want at most %d", got, budget)
	}
}

// TestAllocsFirstLockInproc: a lock first used at site 0 of an in-process
// 9-site grid builds the lock's machines for all nine sites — the cluster
// shares one coterie assignment per lock between its hosts — and site 0's
// instance: its node, the table's entry and the handle; an instance starts
// no goroutine of its own. The other sites' instances are built when the
// lock's first messages reach them. It reads 58; the nine machines are most
// of it.
func TestAllocsFirstLockInproc(t *testing.T) {
	const budget = 60
	c, err := dqmx.NewClusterWith(9, dqmx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	names := make([]string, 256)
	for i := range names {
		names[i] = fmt.Sprintf("lock-%d", i)
	}
	next := 0
	first := func() {
		if _, err := c.LockOn(0, names[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	first()
	got := testing.AllocsPerRun(200, first)
	t.Logf("%.0f allocs per first LockOn(0, name) (N=9 grid)", got)
	if got > budget {
		t.Errorf("first LockOn(0, name) in a 9-site in-process cluster: %.0f allocs, want at most %d", got, budget)
	}
}
