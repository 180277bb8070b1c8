package sim

import (
	"testing"
	"testing/quick"

	"dqmx/internal/mutex"
)

func TestKernelRunsInTimeOrder(t *testing.T) {
	var k Kernel
	var got []Time
	for _, at := range []Time{30, 10, 20} {
		at := at
		k.At(at, func() { got = append(got, at) })
	}
	k.Run(0)
	want := []Time{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30 {
		t.Errorf("Now = %d, want 30", k.Now())
	}
	if k.Steps() != 3 {
		t.Errorf("Steps = %d, want 3", k.Steps())
	}
}

func TestKernelFIFOAmongSimultaneous(t *testing.T) {
	var k Kernel
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { got = append(got, i) })
	}
	k.Run(0)
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events out of insertion order: %v", got)
		}
	}
}

// TestKernelDeliveriesOrderWithCallbacks: an arrival scheduled with
// DeliverAt takes its place among At's callbacks by (time, insertion), the
// handler sees the envelope it was scheduled with, and slab slots are reused
// once their arrival has fired.
func TestKernelDeliveriesOrderWithCallbacks(t *testing.T) {
	var k Kernel
	var got []int
	arrive := func(env mutex.Envelope) { got = append(got, int(env.Seq)) }
	for round := 0; round < 3; round++ {
		base := 10 * Time(round+1)
		k.DeliverAt(base+5, mutex.Envelope{Seq: 2}, arrive)
		k.At(base+5, func() { got = append(got, 3) })
		k.DeliverAt(base+5, mutex.Envelope{Seq: 4}, arrive)
		k.DeliverAt(base, mutex.Envelope{Seq: 1}, arrive)
		k.Run(0)
		if len(k.slab) != 3 || len(k.free) != 3 {
			t.Fatalf("round %d: slab %d slots, %d free; want 3 and 3", round, len(k.slab), len(k.free))
		}
	}
	want := []int{1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ran %v, want %v", got, want)
		}
	}
}

func TestKernelPastEventsRunNow(t *testing.T) {
	var k Kernel
	k.At(100, func() {
		k.At(50, func() {}) // scheduled "in the past"
	})
	k.Run(0)
	if k.Now() != 100 {
		t.Errorf("time went backwards: Now = %d", k.Now())
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	var k Kernel
	depth := 0
	var recurse func()
	recurse = func() {
		if depth < 5 {
			depth++
			k.After(10, recurse)
		}
	}
	k.After(0, recurse)
	k.Run(0)
	if depth != 5 {
		t.Errorf("depth = %d, want 5", depth)
	}
	if k.Now() != 50 {
		t.Errorf("Now = %d, want 50", k.Now())
	}
}

func TestKernelMaxSteps(t *testing.T) {
	var k Kernel
	count := 0
	for i := 0; i < 10; i++ {
		k.At(Time(i), func() { count++ })
	}
	if n := k.Run(3); n != 3 {
		t.Fatalf("Run returned %d, want 3", n)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if k.Pending() != 7 {
		t.Fatalf("Pending = %d, want 7", k.Pending())
	}
}

func TestKernelRunUntil(t *testing.T) {
	var k Kernel
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		k.At(at, func() { fired = append(fired, at) })
	}
	k.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want 2 events", fired)
	}
	if k.Now() != 25 {
		t.Fatalf("Now = %d, want 25", k.Now())
	}
	k.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired = %v, want 4 events", fired)
	}
}

// TestKernelEventOrderProperty: however events are inserted, execution is in
// non-decreasing time order.
func TestKernelEventOrderProperty(t *testing.T) {
	check := func(times []uint16) bool {
		var k Kernel
		var seen []Time
		for _, at := range times {
			at := Time(at)
			k.At(at, func() { seen = append(seen, at) })
		}
		k.Run(0)
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(times)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
