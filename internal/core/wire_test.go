package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
	"dqmx/internal/wire"
)

// wireMessages returns one representative value per §3.1 message type,
// exercising every optional branch (piggybacked transfer, None forwarding,
// sentinel timestamps).
func wireMessages() []any {
	ts := func(seq uint64, site mutex.SiteID) timestamp.Timestamp {
		return timestamp.Timestamp{Seq: seq, Site: site}
	}
	return []any{
		requestMsg{TS: ts(1, 0)},
		requestMsg{TS: ts(2, 1), Refresh: true, Dead: []mutex.SiteID{0, 3}},
		replyMsg{Arbiter: 2, ReqTS: ts(3, 1)},
		replyMsg{Arbiter: 2, ReqTS: ts(3, 1), Transfer: &transferInfo{Arbiter: 4, TargetTS: ts(5, 2)}},
		releaseMsg{ReqTS: ts(6, 0), Fwd: timestamp.None, FwdTS: timestamp.Timestamp{}},
		releaseMsg{ReqTS: ts(6, 0), Fwd: 3, FwdTS: ts(7, 3), Withdraw: true},
		inquireMsg{Arbiter: 1, HolderTS: ts(8, 2)},
		failMsg{Arbiter: 0, ReqTS: ts(9, 4)},
		yieldMsg{ReqTS: ts(10, 1)},
		transferMsg{Transfer: transferInfo{Arbiter: 5, TargetTS: timestamp.Max}, HolderTS: ts(11, 0), Inquire: true},
	}
}

// wireEnvelopes returns wireMessages as the envelopes the protocol sends:
// inline bodies, and the refresh request behind Msg.
func wireEnvelopes() []mutex.Envelope {
	msgs := wireMessages()
	envs := make([]mutex.Envelope, len(msgs))
	for i, m := range msgs {
		envs[i] = carry(1, 2, m)
	}
	return envs
}

func TestWireRoundTripCoreMessages(t *testing.T) {
	for _, env := range wireEnvelopes() {
		env.Resource, env.Seq, env.Ack, env.Epoch = "r", 3, 4, 5
		got, err := wire.RoundTrip(env)
		if err != nil {
			t.Fatalf("%v: %v", env.PayloadString(), err)
		}
		if !reflect.DeepEqual(got, env) {
			t.Errorf("round-trip = %+v, want %+v", got, env)
		}
	}
}

// TestGoldenFrames pins the bytes of every §3.1 message in every shape that
// encodes differently. The hex was generated once from the commit before the
// inline body existed, when every message travelled boxed behind
// Envelope.Msg; moving a message into the body must not move a byte. Each
// frame is the second on its stream (resource "r", From 2, To 1, Seq 9,
// Ack 8): the interning literal has gone out with the first.
//
// A request is produced twice, from the inline body and from the struct form
// behind Msg (the carrier of the §6 refresh request, which shares the
// request's tag): the two must be the same bytes and decode to the same
// envelope.
func TestGoldenFrames(t *testing.T) {
	for _, tc := range []struct {
		name string
		msg  any
		want string
	}{
		{"request", requestMsg{TS: ts(1, 0)},
			"0b0204020908000101010000"},
		{"request refresh+dead", requestMsg{TS: ts(2, 1), Refresh: true, Dead: []mutex.SiteID{0, 3}},
			"0e0204020908000101020201020006"},
		{"reply", replyMsg{Arbiter: 2, ReqTS: ts(3, 1)},
			"0c020402090800020401030200"},
		{"reply+transfer", replyMsg{Arbiter: 2, ReqTS: ts(3, 1), Transfer: &transferInfo{Arbiter: 2, TargetTS: ts(5, 4)}},
			"1002040209080002040103020104010508"},
		{"release", releaseMsg{ReqTS: ts(6, 0), Fwd: timestamp.None},
			"0f020402090800030106000101000000"},
		{"release forwarded", releaseMsg{ReqTS: ts(6, 0), Fwd: 3, FwdTS: ts(7, 3)},
			"0f020402090800030106000601070600"},
		{"release withdraw", releaseMsg{ReqTS: ts(6, 0), Fwd: timestamp.None, Withdraw: true},
			"0f020402090800030106000101000001"},
		{"inquire", inquireMsg{Arbiter: 1, HolderTS: ts(8, 2)},
			"0b0204020908000402010804"},
		{"fail", failMsg{Arbiter: 0, ReqTS: ts(9, 4)},
			"0b0204020908000500010908"},
		{"yield", yieldMsg{ReqTS: ts(10, 1)},
			"0a02040209080006010a02"},
		{"transfer", transferMsg{Transfer: transferInfo{Arbiter: 5, TargetTS: ts(12, 3)}, HolderTS: ts(11, 0)},
			"0f020402090800070a010c06010b0000"},
		{"transfer+inquire", transferMsg{Transfer: transferInfo{Arbiter: 5, TargetTS: ts(12, 3)}, HolderTS: ts(11, 0), Inquire: true},
			"0f020402090800070a010c06010b0001"},
	} {
		inline := carry(2, 1, tc.msg)
		inline.Resource, inline.Seq, inline.Ack = "r", 9, 8
		envs := []mutex.Envelope{inline}
		if req, ok := tc.msg.(requestMsg); ok {
			boxed := inline
			boxed.Body, boxed.Msg = mutex.Body{}, req
			envs = append(envs, boxed)
		}
		for _, env := range envs {
			frame, decoded := secondFrame(t, env)
			if got := fmt.Sprintf("%x", frame); got != tc.want {
				t.Errorf("%s: frame changed:\n got  %s\n want %s", tc.name, got, tc.want)
			}
			// Whichever carrier went in, the decoder hands back the one
			// the message's shape fixes.
			if !reflect.DeepEqual(decoded, inline) {
				t.Errorf("%s: decoded %+v, want %+v", tc.name, decoded, inline)
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
	if err := enc.Encode(env); err != nil {
		t.Fatal(err)
	}
	first := stream.Len()
	if err := enc.Encode(env); err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), stream.Bytes()[first:]...)
	dec := wire.Binary().NewDecoder(&stream)
	var out mutex.Envelope
	for i := 0; i < 2; i++ {
		var err error
		if out, err = dec.Decode(); err != nil {
			t.Fatal(err)
		}
	}
	return frame, out
}

// BenchmarkCodecRoundTrip measures encode+decode over the representative
// §3.1 message mix — the protocol hot path as the TCP read/write loops see
// it.
func BenchmarkCodecRoundTrip(b *testing.B) {
	envs := wireEnvelopes()
	var buf bytes.Buffer
	enc := wire.Binary().NewEncoder(&buf)
	dec := wire.Binary().NewDecoder(&buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := envs[i%len(envs)]
		env.Resource, env.Seq = "bench-resource", uint64(i+1)
		if err := enc.Encode(env); err != nil {
			b.Fatal(err)
		}
		if _, err := dec.Decode(); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzCodecDifferential checks the codec against struct identity, the
// difference being between what went into the encoder and what comes out of
// the decoder: there is to be none. The decoder must not panic on raw input,
// and any frame it accepts yields an envelope that survives
// decode(encode(env)) == env field for field — all seven inline kinds, the
// boxed refresh request and the payload-free ack are among the seeds. On the
// byte side, re-encoding an accepted frame gives its canonical form: never
// longer than the frame (the decoder tolerates encoding/binary's padded
// varints and a spelled-out Max timestamp, the encoder emits neither), the
// same bytes when equally long, and a fixed point from then on.
func FuzzCodecDifferential(f *testing.F) {
	encode := func(t testing.TB, env mutex.Envelope) []byte {
		var buf bytes.Buffer
		enc := wire.Binary().NewEncoder(&buf)
		defer enc.Close()
		if err := enc.Encode(env); err != nil {
			t.Fatalf("encode %+v: %v", env, err)
		}
		return buf.Bytes()
	}
	for i, env := range wireEnvelopes() {
		env.Resource = fmt.Sprintf("r%d", i%3)
		env.From, env.To = mutex.SiteID(i), mutex.SiteID(i+1)
		env.Seq, env.Ack = uint64(i*7), uint64(i*3)
		f.Add(encode(f, env))
	}
	f.Add(encode(f, mutex.Envelope{From: 4, To: 2, Ack: 9, Epoch: 3})) // standalone ack
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := wire.Binary().NewDecoder(bytes.NewReader(data))
		env, err := dec.Decode()
		dec.Close()
		if err != nil {
			return // malformed input is fine; panicking is not
		}
		canon := encode(t, env)
		got, err := wire.Binary().NewDecoder(bytes.NewReader(canon)).Decode()
		if err != nil {
			t.Fatalf("re-encoded frame % x of %+v does not decode: %v", canon, env, err)
		}
		if !reflect.DeepEqual(got, env) {
			t.Errorf("round-trip = %+v, want %+v", got, env)
		}
		if again := encode(t, got); !bytes.Equal(again, canon) {
			t.Errorf("canonical frame % x re-encodes as % x", canon, again)
		}
		n, k := binary.Uvarint(data) // the accepted frame: prefix + payload
		accepted := data[:k+int(n)]
		if len(canon) > len(accepted) || (len(canon) == len(accepted) && !bytes.Equal(canon, accepted)) {
			t.Errorf("accepted frame % x re-encodes as % x", accepted, canon)
		}
	})
}
