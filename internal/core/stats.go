package core

import "dqmx/internal/timestamp"

// CaseStats counts how often each of the paper's §5.2 heavy-load cases
// occurred at this arbiter: the classification of a request arriving while
// the arbiter is locked, by its priority relative to the lock holder and the
// queue head.
//
//	Case 1: queue empty,     request loses to the lock
//	Case 2: request wins against both lock and queue head (inquire path)
//	Case 3: queue non-empty, request loses to the head
//	Case 4: request displaces a head that outranks the lock
//	Case 5: request beats the head but loses to the lock
type CaseStats struct {
	Case [6]uint64 // index 1..5; 0 unused
}

// Total returns the number of classified arrivals.
func (c CaseStats) Total() uint64 {
	var t uint64
	for _, v := range c.Case {
		t += v
	}
	return t
}

// classify records the §5.2 case of a locked-arbiter arrival. oldHead is
// timestamp.Max when the queue was empty.
func (a *arbiter) classify(ts, oldHead timestamp.Timestamp) {
	switch {
	case oldHead.IsMax() && !ts.Less(a.lock):
		a.cases.Case[1]++
	case ts.Less(a.lock) && (oldHead.IsMax() || ts.Less(oldHead)):
		a.cases.Case[2]++
	case !oldHead.IsMax() && oldHead.Less(ts):
		a.cases.Case[3]++
	case !oldHead.IsMax() && ts.Less(oldHead) && oldHead.Less(a.lock):
		a.cases.Case[4]++
	default:
		a.cases.Case[5]++
	}
}

// Cases returns the arbiter's §5.2 case counters.
func (s *Site) Cases() CaseStats { return s.arb.cases }
