package transport

import "time"

// Defaults for the reconnect policy of broken outbound connections: a bounded
// exponential-backoff dial loop, so a transient peer restart is absorbed by
// the transport instead of surfacing as a protocol error. The total retry
// window is ~1.3s of backoff plus dial timeouts; a peer silent for longer is
// the failure detector's problem, not the sender's.
const (
	dialTimeout       = 5 * time.Second
	reconnectAttempts = 6
	reconnectBase     = 25 * time.Millisecond
	reconnectMax      = 500 * time.Millisecond
)

// WireConfig gathers the knobs of the byte layer under one roof: the
// synthetic per-hop latency and the reconnect policy. The zero value means
// "no delay, default reconnect policy"; withDefaults resolves it.
type WireConfig struct {
	// LinkDelay, when positive, holds every outbound batch for that long
	// before it reaches the wire — a deterministic per-hop latency for
	// benchmarking on loopback, where the real network delay is too small
	// and too noisy to separate a T handover from a 2T one. It delays
	// whole batches, not bytes: queueing ahead of the sleep still
	// coalesces, so it models link latency, not bandwidth.
	LinkDelay time.Duration
	// DialTimeout bounds one connection attempt, handshake included.
	DialTimeout time.Duration
	// ReconnectAttempts is the dial budget per batch delivery.
	ReconnectAttempts int
	// ReconnectBase and ReconnectMax bound the exponential backoff between
	// dial attempts.
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
}

// withDefaults resolves the zero values.
func (c WireConfig) withDefaults() WireConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = dialTimeout
	}
	if c.ReconnectAttempts <= 0 {
		c.ReconnectAttempts = reconnectAttempts
	}
	if c.ReconnectBase <= 0 {
		c.ReconnectBase = reconnectBase
	}
	if c.ReconnectMax <= 0 {
		c.ReconnectMax = reconnectMax
	}
	return c
}
