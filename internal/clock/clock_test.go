package clock

import (
	"testing"
	"time"
)

// TestSleep: Sleep reports a full wait, and a closed done cuts it short.
func TestSleep(t *testing.T) {
	if !Sleep(Real, time.Millisecond, nil) {
		t.Fatal("a wait with a nil done was cut short")
	}
	done := make(chan struct{})
	close(done)
	if Sleep(Real, time.Hour, done) {
		t.Fatal("a wait whose done is closed ran to the end")
	}
}

// TestRealAllocatesNothing: reading the time through the seam allocates
// nothing, and a timer costs what the runtime's own timer costs.
func TestRealAllocatesNothing(t *testing.T) {
	var c Clock = Real
	if n := testing.AllocsPerRun(100, func() { _ = c.Now(); _ = Real.Elapsed() }); n != 0 {
		t.Errorf("Now and Elapsed allocate %v times per call", n)
	}
	seam := testing.AllocsPerRun(100, func() { c.NewTimer(time.Hour).Stop() })
	runtime := testing.AllocsPerRun(100, func() { time.NewTimer(time.Hour).Stop() })
	if seam != runtime {
		t.Errorf("a timer through the seam allocates %v times, the runtime's own %v", seam, runtime)
	}
}
