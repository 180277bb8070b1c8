//go:build !race

package core

import (
	"testing"

	"dqmx/internal/mutex"
)

// pump drives a full site set through a zero-delay FIFO in one goroutine,
// every site asking again as soon as it exits — the saturated pattern of the
// repository benchmark's core probe. It copies each Output into its own
// queue before calling a site again, as mutex.Output requires.
type pump struct {
	sites   []mutex.Site
	queue   []mutex.Envelope
	head    int
	entered []mutex.SiteID
	done    int
}

func newPump(t testing.TB, n int) *pump {
	t.Helper()
	sites, err := Algorithm{}.NewSites(n)
	if err != nil {
		t.Fatal(err)
	}
	p := &pump{sites: sites}
	for _, s := range sites {
		p.apply(s.ID(), s.Request())
	}
	return p
}

func (p *pump) apply(s mutex.SiteID, out mutex.Output) {
	p.queue = append(p.queue, out.Send...)
	if out.Entered {
		p.entered = append(p.entered, s)
	}
}

// run completes cs more critical sections.
func (p *pump) run(t testing.TB, cs int) {
	for target := p.done + cs; p.done < target; {
		if n := len(p.entered); n > 0 {
			s := p.entered[n-1]
			p.entered = p.entered[:n-1]
			p.apply(s, p.sites[s].Exit())
			p.done++
			p.apply(s, p.sites[s].Request())
			continue
		}
		if p.head == len(p.queue) {
			t.Fatalf("pump ran dry after %d CS", p.done)
		}
		env := p.queue[p.head]
		p.head++
		if p.head >= 4096 { // drop the consumed prefix, keeping the array
			p.queue = p.queue[:copy(p.queue, p.queue[p.head:])]
			p.head = 0
		}
		p.apply(env.To, p.sites[env.To].Deliver(env))
	}
}

// TestAllocsPerSaturatedCS pins the state machine's allocations for one
// critical section under saturation on the 9-site grid (K=5, about 20
// messages per CS). Nothing is left: the messages are values inside their
// envelopes, unpacked on Deliver's stack (the piggybacked transfer's pointer
// included), and envelope slices and per-request maps are reused. The budget
// allows one stray allocation per CS so that a rare slice growth does not
// flake; boxing the messages again would cost twenty.
func TestAllocsPerSaturatedCS(t *testing.T) {
	const batch = 200
	p := newPump(t, 9)
	p.run(t, 2000) // warm: buffers reach their high-water size
	perCS := testing.AllocsPerRun(10, func() { p.run(t, batch) }) / batch
	t.Logf("%.2f allocs per saturated CS (N=9 grid)", perCS)
	const budget = 1
	if perCS > budget {
		t.Errorf("%.2f allocs per CS, budget %d", perCS, budget)
	}
}

func BenchmarkSaturatedCS(b *testing.B) {
	p := newPump(b, 9)
	p.run(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	p.run(b, b.N)
}
