package dqmx

import (
	"sync/atomic"

	"dqmx/internal/mutex"
)

// CountDeliveries installs a delivery hook on c and returns the number of
// envelopes from a remote site that c's sites have processed since. Once it
// equals Snapshot().Messages, every message sent so far has been delivered
// and acted on: the cluster is quiet.
func CountDeliveries(c *Cluster) *atomic.Uint64 {
	var n atomic.Uint64
	c.inner.SetDeliveryHook(func(mutex.Envelope) { n.Add(1) })
	return &n
}
