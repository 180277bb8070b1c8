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
