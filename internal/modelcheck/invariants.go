package modelcheck

import (
	"fmt"

	"dqmx/internal/mutex"
)

// Invariant is one pluggable property of the explored state space, mirroring
// the chaos checker's conformance rules. Step is called once per explored
// transition with the unmutated pre-state, the chosen action, and the
// resulting post-state; Terminal is called once per quiescent state (no
// deliver, request, or exit choice enabled). The first non-nil error stops
// the search and becomes the Violation.
type Invariant interface {
	Name() string
	Step(pre *State, act Action, post *State) error
	Terminal(st *State) error
}

// StepFunc checks one transition; TerminalFunc checks one quiescent state.
type (
	StepFunc     func(pre *State, act Action, post *State) error
	TerminalFunc func(st *State) error
)

// NewInvariant builds an invariant from plain functions; either may be nil.
func NewInvariant(name string, step StepFunc, terminal TerminalFunc) Invariant {
	return funcInvariant{name: name, step: step, terminal: terminal}
}

type funcInvariant struct {
	name     string
	step     StepFunc
	terminal TerminalFunc
}

func (f funcInvariant) Name() string { return f.name }

func (f funcInvariant) Step(pre *State, act Action, post *State) error {
	if f.step == nil {
		return nil
	}
	return f.step(pre, act, post)
}

func (f funcInvariant) Terminal(st *State) error {
	if f.terminal == nil {
		return nil
	}
	return f.terminal(st)
}

// Defaults returns the standard invariant set: mutual exclusion, settled-wave
// timestamp order, and terminal deadlock freedom. The message-bound invariant
// is added separately via Config.Bound because it changes the canonical state
// (see Config).
func Defaults() []Invariant {
	return []Invariant{SafetyInvariant(), OrderInvariant(), DeadlockInvariant()}
}

// SafetyInvariant asserts the mutual exclusion property: no transition may
// produce a second simultaneous CS holder.
func SafetyInvariant() Invariant {
	return NewInvariant("safety", func(pre *State, act Action, post *State) error {
		if d := post.DoubleEntry(); d != nil {
			return fmt.Errorf("site %d entered the CS while site %d held it", d[1], d[0])
		}
		return nil
	}, nil)
}

// OrderInvariant asserts the chaos checker's timestamp-order rule inside the
// model: when a site enters the CS, no waiting request with a smaller
// timestamp whose wave had settled before the entering request was issued may
// be bypassed. Like the chaos sweep's crash schedules, runs are exempt once a
// site has crashed — §6 recovery re-queues requests and the order guarantee
// is then best-effort.
func OrderInvariant() Invariant {
	return NewInvariant("order", func(pre *State, act Action, post *State) error {
		i := post.Entered()
		if i == -1 || pre.Faulty() {
			return nil
		}
		tsI, ok := post.SiteAt(i).RequestTimestamp()
		if !ok {
			return nil
		}
		for j := 0; j < pre.N(); j++ {
			sj := mutex.SiteID(j)
			if sj == i || pre.Crashed(sj) || !pre.SiteAt(sj).Pending() {
				continue
			}
			if !pre.SettledBefore(sj, i) {
				continue
			}
			tsJ, ok := pre.SiteAt(sj).RequestTimestamp()
			if !ok {
				continue
			}
			if tsJ.Less(tsI) {
				return fmt.Errorf("site %d entered with %v while site %d's settled older request %v waits", i, tsI, sj, tsJ)
			}
		}
		return nil
	}, nil)
}

// DeadlockInvariant asserts terminal liveness: in a quiescent state every
// live site has issued and completed its whole CS budget. A crashed site's
// unfinished work is excused.
func DeadlockInvariant() Invariant {
	return NewInvariant("deadlock", nil, func(st *State) error {
		for i := 0; i < st.N(); i++ {
			si := mutex.SiteID(i)
			if st.Crashed(si) {
				continue
			}
			if st.Remaining(si) > 0 || st.SiteAt(si).Pending() || st.SiteAt(si).InCS() {
				return fmt.Errorf("site %d has incomplete work in a terminal state", i)
			}
		}
		return nil
	})
}

// BoundInvariant asserts the paper's per-CS message envelope on fault-free
// terminal states: total network protocol messages divided by completed CS
// executions must land in [Lo, Hi] — 3(K−1)..6(K−1) for the coterie in use
// (chaos.MessageBounds). Crashed runs are exempt, as in the chaos checker.
func BoundInvariant(b Bound) Invariant {
	return NewInvariant("bound", nil, func(st *State) error {
		if st.Faulty() || st.Exits() == 0 {
			return nil
		}
		perCS := float64(st.Sends()) / float64(st.Exits())
		if perCS < b.Lo || perCS > b.Hi {
			return fmt.Errorf("%.2f messages per CS over %d executions, outside [%.0f, %.0f]",
				perCS, st.Exits(), b.Lo, b.Hi)
		}
		return nil
	})
}
