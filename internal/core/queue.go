package core

import "dqmx/internal/timestamp"

// tsQueue is a priority queue of request timestamps: the highest-priority
// (smallest) timestamp is at index 0. Quorum sizes are small (O(√N) or
// O(log N)), so an ordered slice beats a heap in both simplicity and
// constant factors, and it supports the removal-by-value the protocol needs.
type tsQueue struct {
	items []timestamp.Timestamp
}

// Len returns the number of queued requests.
func (q *tsQueue) Len() int { return len(q.items) }

// Empty reports whether the queue has no requests.
func (q *tsQueue) Empty() bool { return len(q.items) == 0 }

// Head returns the highest-priority request. It must not be called on an
// empty queue.
func (q *tsQueue) Head() timestamp.Timestamp { return q.items[0] }

// Push inserts ts keeping the queue ordered. Duplicate timestamps are
// ignored (a request is enqueued at most once).
func (q *tsQueue) Push(ts timestamp.Timestamp) {
	lo, hi := 0, len(q.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if q.items[mid].Less(ts) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(q.items) && q.items[lo] == ts {
		return
	}
	q.items = append(q.items, timestamp.Timestamp{})
	copy(q.items[lo+1:], q.items[lo:])
	q.items[lo] = ts
}

// Pop removes and returns the highest-priority request. It must not be
// called on an empty queue.
func (q *tsQueue) Pop() timestamp.Timestamp {
	ts := q.items[0]
	// Shift down instead of re-slicing, so the backing array keeps its
	// capacity and Push does not grow a new one every few requests.
	q.items = q.items[:copy(q.items, q.items[1:])]
	return ts
}

// Remove deletes ts from the queue, reporting whether it was present.
func (q *tsQueue) Remove(ts timestamp.Timestamp) bool {
	for i, t := range q.items {
		if t == ts {
			q.items = append(q.items[:i], q.items[i+1:]...)
			return true
		}
	}
	return false
}

// RemoveSite deletes every request issued by the given site, reporting how
// many entries were removed (used by the §6 failure recovery).
func (q *tsQueue) RemoveSite(s timestamp.SiteID) int {
	out := q.items[:0]
	removed := 0
	for _, t := range q.items {
		if t.Site == s {
			removed++
		} else {
			out = append(out, t)
		}
	}
	q.items = out
	return removed
}

// Contains reports whether ts is queued.
func (q *tsQueue) Contains(ts timestamp.Timestamp) bool {
	for _, t := range q.items {
		if t == ts {
			return true
		}
	}
	return false
}
