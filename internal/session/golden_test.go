package session

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"dqmx/internal/core"
	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
	"dqmx/internal/transport"
	"dqmx/internal/wire"
)

// TestSessionGoldenFrames pins the bytes of every session frame (tags 48–54)
// in every shape that encodes differently. The hex was generated from the
// commit before the lock request and reply moved into Envelope.Body, when all
// seven frames travelled boxed behind Envelope.Msg; the move must not change
// a byte. Each frame is the second on its stream, so a named lock's interning
// literal has gone out with the first.
//
// Each case lists the envelope as the session code builds it (canon) and, for
// a message type that can also travel boxed, the boxed envelope: every form
// must encode to the pinned bytes and decode to canon.
func TestSessionGoldenFrames(t *testing.T) {
	boxed := func(m mutex.Message) []mutex.Envelope { return []mutex.Envelope{envelope("", m)} }
	for _, tc := range []struct {
		name  string
		canon mutex.Envelope
		alt   []mutex.Envelope
		want  string
	}{
		{"hello new", envelope("", helloMsg{TTLMillis: 2000}), nil,
			"0a0001010000003000d00f",
		},
		{"hello reattach", envelope("", helloMsg{SessionID: 7, TTLMillis: 250}), nil,
			"0a0001010000003007fa01",
		},
		{"grant held", envelope("", grantMsg{SessionID: 9, TTLMillis: 500, Epoch: 41, Held: []string{"a", "orders"}}), nil,
			"160001010000003109f40329020161066f726465727300",
		},
		{"grant refused", envelope("", grantMsg{Err: errOverloadedText}), nil,
			"1e00010100000031000000001261726269746572206f7665726c6f61646564",
		},
		{"keepalive", envelope("", keepaliveMsg{SessionID: 3}), nil,
			"080001010000003203",
		},
		{"lock-req acquire", lockReqEnvelope("orders", 1, opAcquire), nil,
			"09020101000000330101",
		},
		{"lock-req release", lockReqEnvelope("orders", 300, opRelease), nil,
			"0a02010100000033ac0202",
		},
		{"lock-req cancel", lockReqEnvelope("orders", 1, opCancel), nil,
			"09020101000000330103",
		},
		{"lock-rep ok", lockRepEnvelope(lockRepMsg{ReqID: 2, OK: true}), boxed(lockRepMsg{ReqID: 2, OK: true}),
			"0a00010100000034020100",
		},
		{"lock-rep error", lockRepEnvelope(lockRepMsg{ReqID: 5, Err: errNotHeldText}), boxed(lockRepMsg{ReqID: 5, Err: errNotHeldText}),
			"270001010000003405001d6c6f636b206e6f742068656c6420627920746869732073657373696f6e",
		},
		{"lock-rep ok+error", lockRepEnvelope(lockRepMsg{ReqID: 6, OK: true, Err: "x"}), boxed(lockRepMsg{ReqID: 6, OK: true, Err: "x"}),
			"0b0001010000003406010178",
		},
		{"expire", envelope("", expireMsg{SessionID: 3, Reason: "lease expired"}), nil,
			"1600010100000035030d6c656173652065787069726564",
		},
		{"bye", envelope("", byeMsg{SessionID: 3}), nil,
			"080001010000003603",
		},
	} {
		for _, env := range append([]mutex.Envelope{tc.canon}, tc.alt...) {
			frame, decoded := secondFrame(t, env)
			if got := fmt.Sprintf("%x", frame); got != tc.want {
				t.Errorf("%s: frame changed:\n got  %s\n want %s", tc.name, got, tc.want)
			}
			if !reflect.DeepEqual(decoded, tc.canon) {
				t.Errorf("%s: decoded %+v, want %+v", tc.name, decoded, tc.canon)
			}
			if decoded.Kind() != tc.canon.Kind() {
				t.Errorf("%s: decoded kind %q, want %q", tc.name, decoded.Kind(), tc.canon.Kind())
			}
		}
	}
}

// secondFrame encodes env twice on one stream and returns the second frame's
// bytes and what a decoder of that stream makes of it.
func secondFrame(t *testing.T, env mutex.Envelope) ([]byte, mutex.Envelope) {
	t.Helper()
	var stream bytes.Buffer
	enc := wire.Binary().NewEncoder(&stream)
	defer enc.Close()
	if err := enc.Encode(env); err != nil {
		t.Fatal(err)
	}
	first := stream.Len()
	if err := enc.Encode(env); err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), stream.Bytes()[first:]...)
	dec := wire.Binary().NewDecoder(&stream)
	defer dec.Close()
	var out mutex.Envelope
	for i := 0; i < 2; i++ {
		var err error
		if out, err = dec.Decode(); err != nil {
			t.Fatal(err)
		}
	}
	return frame, out
}

// TestPeerLinkDropsSessionFrames: a session frame that arrives on a peer link
// (a client that dialled a peer port after a handshake it should not have
// passed, or a confused peer) decodes, reaches the site and changes nothing:
// the site ignores what is not one of its own messages, and the peer goes on
// serving.
func TestPeerLinkDropsSessionFrames(t *testing.T) {
	newSite := func(string) (mutex.Site, error) {
		sites, err := core.Algorithm{}.NewSites(1)
		if err != nil {
			return nil, err
		}
		return sites[0], nil
	}
	peer, err := transport.NewTCPPeerConfig(transport.TCPConfig{Factory: newSite, ListenAddr: "127.0.0.1:0", N: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	// The barrier: a request from a site that is not in the cluster, sent
	// after the session frames on the same stream. Once the peer's site shows
	// the state that request alone produces, every session frame before it
	// has been delivered — and left no trace.
	barrier := mutex.Envelope{From: 1, To: 0, Body: mutex.Body{Kind: mutex.BodyRequest, TS: timestamp.Timestamp{Seq: 1, Site: 1}}}
	ref, err := newSite("")
	if err != nil {
		t.Fatal(err)
	}
	ref.Deliver(barrier)
	want := "[(default)] " + ref.(*core.Site).DebugString() + "\n"
	if before := peer.DumpState(); before == want {
		t.Fatal("the barrier request does not change the site's state")
	}

	nc, err := net.DialTimeout("tcp", peer.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.Offer(nc, wire.MagicPeer, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	enc := wire.Binary().NewEncoder(nc)
	defer enc.Close()
	for _, env := range []mutex.Envelope{
		lockReqEnvelope("", 1, opAcquire),
		lockReqEnvelope("", 2, opRelease),
		lockReqEnvelope("", 1, opCancel),
		lockRepEnvelope(lockRepMsg{ReqID: 1, OK: true}),
		lockRepEnvelope(lockRepMsg{ReqID: 2, Err: errNotHeldText}),
		lockRepEnvelope(lockRepMsg{ReqID: 3, OK: true, Err: "x"}),
		barrier,
	} {
		if err := enc.Encode(env); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return peer.DumpState() == want })

	// Still serving: the link is up and another lock goes through.
	l, err := peer.Lock("after")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.Acquire(ctx); err != nil {
		t.Fatalf("acquire after the session frames: %v", err)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
}
