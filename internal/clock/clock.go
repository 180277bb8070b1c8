// Package clock is the live runtime's one seam onto time: every reading of
// the time and every wait in internal/transport, internal/session,
// internal/chaos and internal/obs goes through a Clock, and `make
// clockcheck` keeps it so. Real is the one production Clock; tests
// substitute a manual one, and a virtual clock on the simulator's kernel can
// replace it without touching the runtime. Left on the host clock, as that
// virtual clock's remaining work: socket deadlines (the kernel enforces
// them), context.WithTimeout, internal/loadgen, cmd/ and examples/.
package clock

import "time"

// Clock reads the time and arms timers.
type Clock interface {
	Now() time.Time
	NewTimer(d time.Duration) Timer
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is one armed timer with time.Timer's Go 1.23 semantics: after Stop
// or Reset returns, no earlier tick arrives on C (nil for AfterFunc). A
// periodic loop re-arms with Reset and reads C on every pass.
type Timer interface {
	C() <-chan time.Time
	Stop() bool
	Reset(d time.Duration) bool
}

// Real is the host's clock, the one production Clock.
var Real host

// origin is process start, the zero of Real.Elapsed.
var origin = time.Now()

type host struct{}

func (host) Now() time.Time                            { return time.Now() }
func (host) NewTimer(d time.Duration) Timer            { return hostTimer{time.NewTimer(d)} }
func (host) AfterFunc(d time.Duration, f func()) Timer { return hostTimer{time.AfterFunc(d, f)} }

// Elapsed is the monotonic time since process start, the stamp of every live
// event (obs.Now).
func (host) Elapsed() time.Duration { return time.Since(origin) }

// hostTimer boxes a *time.Timer into a Timer without allocating.
type hostTimer struct{ *time.Timer }

func (t hostTimer) C() <-chan time.Time { return t.Timer.C }

// Sleep waits d on c unless done closes first, and reports whether the whole
// wait elapsed. It serves stop channels and ctx.Done() alike; a nil done
// never closes.
func Sleep(c Clock, d time.Duration, done <-chan struct{}) bool {
	t := c.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C():
		return true
	case <-done:
		return false
	}
}
