package transport

import "time"

// The reconnect policy of broken outbound connections: a bounded
// exponential-backoff dial loop, so a transient peer restart is absorbed by
// the transport instead of surfacing as a protocol error. The total retry
// window is ~1.3s of backoff plus dial timeouts; a peer silent for longer is
// the failure detector's problem, not the sender's.
const (
	dialTimeout       = 5 * time.Second // one attempt, handshake included
	reconnectAttempts = 6               // dial budget per batch delivery
	reconnectBase     = 25 * time.Millisecond
	reconnectMax      = 500 * time.Millisecond
)

// WireConfig gathers the knobs of the byte layer. The zero value means "no
// delay".
type WireConfig struct {
	// LinkDelay, when positive, holds every outbound batch for that long
	// before it reaches the wire — a deterministic per-hop latency for
	// benchmarking on loopback, where the real network delay is too small
	// and too noisy to separate a T handover from a 2T one. It delays
	// whole batches, not bytes: queueing ahead of the sleep still
	// coalesces, so it models link latency, not bandwidth.
	LinkDelay time.Duration
}
