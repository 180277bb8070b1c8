package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dqmx/internal/mutex"
)

type fakeMsg struct {
	kind string
	n    int
}

func (m fakeMsg) Kind() string { return m.kind }

func TestNetworkFIFOPerChannel(t *testing.T) {
	check := func(seed int64) bool {
		var k Kernel
		var got []int
		net := NewNetwork(&k, 4, ExponentialDelay{MeanD: 100}, seed, func(e mutex.Envelope) {
			got = append(got, e.Msg.(fakeMsg).n)
		})
		for i := 0; i < 20; i++ {
			net.Send(mutex.Envelope{From: 0, To: 1, Msg: fakeMsg{"request", i}})
		}
		k.Run(0)
		if len(got) != 20 {
			return false
		}
		for i := range got {
			if got[i] != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkCountsByKind(t *testing.T) {
	var k Kernel
	net := NewNetwork(&k, 4, ConstantDelay{D: 10}, 1, func(mutex.Envelope) {})
	net.Send(mutex.Envelope{From: 0, To: 1, Msg: fakeMsg{"request", 0}})
	net.Send(mutex.Envelope{From: 1, To: 0, Msg: fakeMsg{"reply", 0}})
	net.Send(mutex.Envelope{From: 0, To: 1, Msg: fakeMsg{"reply", 1}})
	k.Run(0)
	counts := net.CountByKind()
	if counts["request"] != 1 || counts["reply"] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if net.Total() != 3 {
		t.Fatalf("Total = %d, want 3", net.Total())
	}
}

func TestNetworkCrashDropsMessages(t *testing.T) {
	var k Kernel
	delivered := 0
	net := NewNetwork(&k, 4, ConstantDelay{D: 10}, 1, func(mutex.Envelope) { delivered++ })
	net.Send(mutex.Envelope{From: 0, To: 1, Msg: fakeMsg{"request", 0}}) // in flight
	net.Crash(1)
	net.Send(mutex.Envelope{From: 0, To: 1, Msg: fakeMsg{"request", 1}}) // dropped at send
	net.Send(mutex.Envelope{From: 1, To: 0, Msg: fakeMsg{"reply", 2}})   // from crashed site
	k.Run(0)
	if delivered != 0 {
		t.Fatalf("delivered = %d, want 0 (crash must drop in-flight too)", delivered)
	}
	if !net.Down(1) || net.Down(0) {
		t.Fatal("Down() reporting wrong state")
	}
}

func TestNetworkConstantDelayTiming(t *testing.T) {
	var k Kernel
	var at Time
	net := NewNetwork(&k, 4, ConstantDelay{D: 777}, 1, func(mutex.Envelope) { at = k.Now() })
	net.Send(mutex.Envelope{From: 0, To: 1, Msg: fakeMsg{"request", 0}})
	k.Run(0)
	if at != 777 {
		t.Fatalf("delivery at %d, want 777", at)
	}
	if net.MeanDelay() != 777 {
		t.Fatalf("MeanDelay = %d", net.MeanDelay())
	}
}

func TestDelayDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := UniformDelay{Lo: 10, Hi: 20}
	for i := 0; i < 1000; i++ {
		d := u.Sample(rng)
		if d < 10 || d > 20 {
			t.Fatalf("uniform sample %d out of range", d)
		}
	}
	if u.Mean() != 15 {
		t.Fatalf("uniform mean = %d", u.Mean())
	}
	degenerate := UniformDelay{Lo: 5, Hi: 5}
	if d := degenerate.Sample(rng); d != 5 {
		t.Fatalf("degenerate uniform sample = %d", d)
	}

	e := ExponentialDelay{MeanD: 100}
	sum := 0.0
	for i := 0; i < 20000; i++ {
		d := e.Sample(rng)
		if d < 1 || d > 2000 {
			t.Fatalf("exponential sample %d out of [1, 20·mean]", d)
		}
		sum += float64(d)
	}
	mean := sum / 20000
	if mean < 80 || mean > 120 {
		t.Fatalf("exponential empirical mean = %v, want ≈100", mean)
	}
}
