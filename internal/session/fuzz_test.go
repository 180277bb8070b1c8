package session

// Black-box fuzzing of the session frame grammar against a live endpoint:
// every input runs through a real server — TCP accept, DQS preamble, codec
// negotiation, then the fuzzed bytes as the post-handshake frame stream.
// Whatever a client (or an attacker holding the port) sends after the
// handshake, the server's read loop must fail the connection cleanly:
// never panic, never wedge the arbiter. Inputs that decode into valid
// session frames (tags 48–54) exercise the live dispatch paths — duplicate
// hellos, keepalives, lock requests against the arbiter's quorum protocol —
// which is exactly the surface a hostile client reaches.

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"dqmx/internal/core"
	"dqmx/internal/mutex"
	"dqmx/internal/resource"
	"dqmx/internal/transport"
	"dqmx/internal/wire"
)

// sessionSeedFrames is realistic session traffic: every message type in the
// 48–54 tag range, including frames only the server normally emits — an
// attacker can send those too.
func sessionSeedFrames() [][]mutex.Envelope {
	return [][]mutex.Envelope{
		{envelope("", helloMsg{TTLMillis: 250})},
		{envelope("", helloMsg{SessionID: 7, TTLMillis: 1000})},
		{envelope("", grantMsg{SessionID: 9, TTLMillis: 500, Epoch: 41, Held: []string{"orders"}})},
		{envelope("", keepaliveMsg{SessionID: 3})},
		{envelope("", expireMsg{SessionID: 3, Reason: "lease expired"})},
		{lockReqEnvelope("orders", 1, opAcquire)},
		{lockReqEnvelope("orders", 2, opRelease)},
		{lockRepEnvelope(lockRepMsg{ReqID: 1, OK: true})},
		{lockRepEnvelope(lockRepMsg{ReqID: 2, Err: errNotHeldText})},
		{lockRepEnvelope(lockRepMsg{ReqID: 3, OK: true, Err: "x"})},
		{envelope("", byeMsg{SessionID: 3})},
		{
			envelope("", keepaliveMsg{SessionID: 1}),
			lockReqEnvelope("a", 1, opAcquire),
			lockReqEnvelope("a", 1, opCancel),
			envelope("", byeMsg{SessionID: 1}),
		},
	}
}

func sessionSeeds(t testing.TB) [][]byte {
	t.Helper()
	var seeds [][]byte
	for _, envs := range sessionSeedFrames() {
		var buf bytes.Buffer
		enc := wire.Binary().NewEncoder(&buf)
		for _, env := range envs {
			if err := enc.Encode(env); err != nil {
				t.Fatalf("encode seed: %v", err)
			}
		}
		enc.Close()
		seeds = append(seeds, buf.Bytes())
	}
	return seeds
}

func FuzzSessionFrame(f *testing.F) {
	for _, seed := range sessionSeeds(f) {
		f.Add(seed)
	}
	cluster, err := transport.NewClusterConfig(transport.ClusterConfig{
		Algorithm: core.Algorithm{},
		N:         3,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(cluster.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Locks: func(name string) (*resource.Lock, error) {
			return cluster.Lock(0, name)
		},
		Listener: ln,
		// Short leases so the sessions the fuzzed connections open are
		// reclaimed promptly instead of accumulating across the run.
		Lease: 100 * time.Millisecond,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	addr := ln.Addr().String()

	// A pre-encoded valid hello binds each fuzz connection to a session, so
	// the fuzz bytes land on the attached read loop — the full dispatch
	// surface — not just the handshake rejector.
	var helloBuf bytes.Buffer
	enc := wire.Binary().NewEncoder(&helloBuf)
	if err := enc.Encode(envelope("", helloMsg{TTLMillis: 100})); err != nil {
		f.Fatal(err)
	}
	enc.Close()
	helloBytes := helloBuf.Bytes()

	f.Fuzz(func(t *testing.T, data []byte) {
		nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatalf("dial live endpoint: %v", err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := nc.Write([]byte{0x00, 'D', 'Q', wire.MagicSession, wire.Version}); err != nil {
			t.Fatalf("preamble: %v", err)
		}
		var v [1]byte
		if _, err := io.ReadFull(nc, v[:]); err != nil {
			t.Fatalf("handshake answer: %v", err)
		}
		if _, err := nc.Write(helloBytes); err != nil {
			t.Fatalf("hello: %v", err)
		}
		// The fuzz payload is the rest of the stream. The server consumes it
		// from its own goroutine; a panic there crashes the fuzz process and
		// is the failure we are hunting. Write errors just mean the server
		// already rejected an earlier frame and closed on us — that is the
		// clean-failure path working.
		nc.Write(data)
		nc.Close()
		// The server must still be serviceable afterwards (its accept and
		// lease loops alive enough to answer a stats probe).
		_ = srv.Stats()
	})
}
