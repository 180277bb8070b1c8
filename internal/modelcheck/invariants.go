package modelcheck

import (
	"errors"
	"fmt"

	"dqmx/internal/mutex"
)

// Invariant is one pluggable property of the explored state space. Step is
// called once per explored transition with the unmutated pre-state, the
// chosen action, and the resulting post-state; Terminal is called once per
// quiescent state (no deliver, request, or exit choice enabled). Either may
// be nil. The first non-nil error stops the search and becomes the
// Violation.
type Invariant struct {
	Name     string
	Step     func(pre *State, act Action, post *State) error
	Terminal func(st *State) error
}

// step checks one transition; an invariant without a Step passes it.
func (inv Invariant) step(pre *State, act Action, post *State) error {
	if inv.Step == nil {
		return nil
	}
	return inv.Step(pre, act, post)
}

// terminal checks one quiescent state; an invariant without a Terminal
// passes it.
func (inv Invariant) terminal(st *State) error {
	if inv.Terminal == nil {
		return nil
	}
	return inv.Terminal(st)
}

// Defaults returns the standard invariant set: mutual exclusion, settled-wave
// timestamp order, and terminal deadlock freedom. The message-bound invariant
// is added separately via Config.Bound because it changes the canonical state
// (see Config).
func Defaults() []Invariant {
	return []Invariant{SafetyInvariant(), OrderInvariant(), DeadlockInvariant()}
}

// SafetyInvariant asserts mutual exclusion (the ledger's safety rule): no
// transition may produce a second simultaneous CS holder.
func SafetyInvariant() Invariant {
	return Invariant{Name: "safety", Step: func(pre *State, act Action, post *State) error {
		return post.verdict("safety")
	}}
}

// OrderInvariant asserts the ledger's timestamp-order rule: when a site
// enters the CS, no waiting request with a smaller timestamp whose wave
// settled before the entering request was issued, and was never withdrawn,
// may be bypassed. The explorer waives it for the rest of a run once any
// site has crashed: §6 recovery re-queues requests and the order guarantee
// is then best-effort. (The live chaos checker keeps asserting it on crash
// schedules, skipping only the requests of the sites it saw fail.)
func OrderInvariant() Invariant {
	return Invariant{Name: "order", Step: func(pre *State, act Action, post *State) error {
		if pre.Faulty() {
			return nil
		}
		return post.verdict("order")
	}}
}

// verdict returns the ledger's first breach of the given kind on the
// transition that produced st, nil when there is none.
func (st *State) verdict(kind string) error {
	for _, v := range st.found {
		if v.Kind == kind {
			return fmt.Errorf("site %d %s", v.Site, v.Detail)
		}
	}
	return nil
}

// DeadlockInvariant asserts terminal liveness: in a quiescent state every
// live site has issued and completed its whole CS budget. A crashed site's
// unfinished work is excused.
func DeadlockInvariant() Invariant {
	return Invariant{Name: "deadlock", Terminal: func(st *State) error {
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
	}}
}

// BoundInvariant asserts the ledger's bound rule on fault-free terminal
// states: network protocol messages divided by completed CS executions must
// land in [Lo, Hi] — 3(K−1)..6(K−1) for the coterie in use
// (chaos.MessageBounds). Crashed runs are exempt.
func BoundInvariant(b Bound) Invariant {
	return Invariant{Name: "bound", Terminal: func(st *State) error {
		if vs := st.ledger.Bound(b.Lo, b.Hi); len(vs) > 0 {
			return errors.New(vs[0].Detail)
		}
		return nil
	}}
}
