package core

import (
	"slices"

	"dqmx/internal/timestamp"
)

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
	q.items = upsert(q.items, ts, timestamp.Timestamp.Compare)
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
	i := slices.Index(q.items, ts)
	if i >= 0 {
		q.items = slices.Delete(q.items, i, i+1)
	}
	return i >= 0
}

// RemoveSite deletes every request issued by the given site, reporting how
// many entries were removed (used by the §6 failure recovery).
func (q *tsQueue) RemoveSite(s timestamp.SiteID) int {
	n := len(q.items)
	q.items = slices.DeleteFunc(q.items, func(t timestamp.Timestamp) bool { return t.Site == s })
	return n - len(q.items)
}

// Contains reports whether ts is queued.
func (q *tsQueue) Contains(ts timestamp.Timestamp) bool { return slices.Contains(q.items, ts) }

// upsert puts v into the sorted slice xs, replacing an element that compares
// equal.
func upsert[E any](xs []E, v E, cmp func(E, E) int) []E {
	i, found := slices.BinarySearchFunc(xs, v, cmp)
	if found {
		xs[i] = v
		return xs
	}
	return slices.Insert(xs, i, v)
}
