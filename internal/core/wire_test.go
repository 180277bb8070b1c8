package core

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
	"dqmx/internal/wire"
)

// wireMessages returns one representative value per §3.1 message type,
// exercising every optional branch (piggybacked transfer, None forwarding,
// sentinel timestamps).
func wireMessages() []mutex.Message {
	ts := func(seq uint64, site mutex.SiteID) timestamp.Timestamp {
		return timestamp.Timestamp{Seq: seq, Site: site}
	}
	return []mutex.Message{
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

func TestWireRoundTripCoreMessages(t *testing.T) {
	for _, c := range []wire.Codec{wire.Binary(), wire.Gob()} {
		for _, msg := range wireMessages() {
			env := mutex.Envelope{Resource: "r", From: 1, To: 2, Msg: msg, Seq: 3, Ack: 4}
			got, err := wire.RoundTrip(c, env)
			if err != nil {
				t.Fatalf("%s: %T: %v", c.Name(), msg, err)
			}
			if !reflect.DeepEqual(got, env) {
				t.Errorf("%s: %T: round-trip = %+v, want %+v", c.Name(), msg, got, env)
			}
		}
	}
}

// TestGobV0ReplyFrameFrozen pins the bytes of the v0 reply frame, the one
// hot-path message with an optional part. A peer built before the codec
// layer decodes this stream with its own replyMsg, so the layout is frozen:
// in particular Transfer must stay a pointer. Gob omits a nil pointer but
// always sends a nested struct, all-zero or not, and an old peer decodes
// that to a non-nil zero instruction and acts on it. The frame checked is
// the second on a stream, after gob's type descriptors have gone out; the
// two type ids in it are numbered per process in first-use order, so they
// are masked.
func TestGobV0ReplyFrameFrozen(t *testing.T) {
	// From 2, To 1, Msg of concrete type "dqmx/internal/core.replyMsg".
	const head = "02 04 01 02 01 1b 64 71 6d 78 2f 69 6e 74 65 72 6e 61 6c 2f 63 6f 72 65 2e 72 65 70 6c 79 4d 73 67"
	// Seq 9, Ack 8.
	const tail = "01 09 01 08 00"
	for _, tc := range []struct {
		msg   mutex.Message
		value string // length-prefixed replyMsg fields
	}{
		{wireMessages()[2], "09 01 04 01 01 03 01 02 00 00"},
		{wireMessages()[3], "13 01 04 01 01 03 01 02 00 01 01 08 01 01 05 01 04 00 00 00"},
	} {
		var stream bytes.Buffer
		enc := wire.Gob().NewEncoder(&stream)
		env := mutex.Envelope{From: 2, To: 1, Msg: tc.msg, Seq: 9, Ack: 8}
		if err := enc.Encode(env); err != nil {
			t.Fatal(err)
		}
		first := stream.Len()
		if err := enc.Encode(env); err != nil {
			t.Fatal(err)
		}
		got := stream.Bytes()[first:]
		body := fmt.Sprintf("ff 00 %s ff 00 %s %s", head, tc.value, tail)
		want := fmt.Sprintf("%02x %s", (len(body)+1)/3, body)
		masked := append([]byte(nil), got...)
		for _, id := range []int{1, 3 + (len(head)+1)/3} { // the envelope's type id, the message's
			if id+1 < len(masked) && masked[id] == 0xff {
				masked[id+1] = 0
			}
		}
		if s := fmt.Sprintf("% x", masked); s != want {
			t.Errorf("v0 frame of %+v changed:\n got  %s\n want %s", tc.msg, s, want)
		}
	}
}

// TestCodecAB is the bench-smoke ratio assertion: the binary codec must beat
// gob by ≥3× ns/op on a representative hot-path message mix with near-zero
// steady-state allocations. It measures via testing.Benchmark so the usual
// calibration machinery absorbs scheduler noise; the margin between the
// observed ratio (~10×) and the 3× floor keeps it non-flaky.
func TestCodecAB(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed assertion; skipped in -short")
	}
	msgs := wireMessages()
	roundTrip := func(c wire.Codec) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			var buf bytes.Buffer
			enc := c.NewEncoder(&buf)
			dec := c.NewDecoder(&buf)
			env := mutex.Envelope{Resource: "ab-resource", From: 1, To: 2}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				env.Msg = msgs[i%len(msgs)]
				env.Seq++
				if err := enc.Encode(env); err != nil {
					b.Fatal(err)
				}
				if _, err := dec.Decode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	gob, bin := roundTrip(wire.Gob()), roundTrip(wire.Binary())
	gobNs, binNs := float64(gob.NsPerOp()), float64(bin.NsPerOp())
	ratio := gobNs / binNs
	t.Logf("gob %.0f ns/op %d B/op; binary %.0f ns/op %d B/op; ratio %.1f×",
		gobNs, gob.AllocedBytesPerOp(), binNs, bin.AllocedBytesPerOp(), ratio)
	if ratio < 3 {
		t.Errorf("binary codec only %.2f× faster than gob, want ≥3×", ratio)
	}
	// The writer hot path — encode alone — must be allocation-free in steady
	// state (pooled scratch, interned names). The round-trip number above
	// also carries the decode side's unavoidable interface boxing, so the
	// zero-alloc assertion goes on an encode-only measurement.
	encOnly := testing.Benchmark(func(b *testing.B) {
		enc := wire.Binary().NewEncoder(io.Discard)
		env := mutex.Envelope{Resource: "ab-resource", From: 1, To: 2}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			env.Msg = msgs[i%len(msgs)]
			env.Seq++
			if err := enc.Encode(env); err != nil {
				b.Fatal(err)
			}
		}
	})
	t.Logf("binary encode-only %d ns/op %d B/op", encOnly.NsPerOp(), encOnly.AllocedBytesPerOp())
	if got := encOnly.AllocedBytesPerOp(); got > 0 {
		t.Errorf("binary encode allocates %d B/op in steady state, want 0", got)
	}
}

// benchmarkCodecRoundTrip measures encode+decode over the representative
// §3.1 message mix — the protocol hot path as the TCP read/write loops see
// it. `make bench-codec` runs it for both codecs.
func benchmarkCodecRoundTrip(b *testing.B, c wire.Codec) {
	msgs := wireMessages()
	var buf bytes.Buffer
	enc := c.NewEncoder(&buf)
	dec := c.NewDecoder(&buf)
	env := mutex.Envelope{Resource: "bench-resource", From: 1, To: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Msg = msgs[i%len(msgs)]
		env.Seq++
		if err := enc.Encode(env); err != nil {
			b.Fatal(err)
		}
		if _, err := dec.Decode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecRoundTrip(b *testing.B) {
	b.Run("gob", func(b *testing.B) { benchmarkCodecRoundTrip(b, wire.Gob()) })
	b.Run("binary", func(b *testing.B) { benchmarkCodecRoundTrip(b, wire.Binary()) })
}

// FuzzCodecDifferential cross-checks the two codecs: any envelope the fuzzer
// can build from a binary frame must round-trip byte-identically through gob
// and through binary, and neither decoder may panic on the raw input.
func FuzzCodecDifferential(f *testing.F) {
	for i, msg := range wireMessages() {
		env := mutex.Envelope{
			Resource: fmt.Sprintf("r%d", i%3),
			From:     mutex.SiteID(i), To: mutex.SiteID(i + 1),
			Msg: msg, Seq: uint64(i * 7), Ack: uint64(i * 3),
		}
		var buf bytes.Buffer
		enc := wire.Binary().NewEncoder(&buf)
		if err := enc.Encode(env); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Stage 1: the binary decoder must never panic on raw fuzz input.
		dec := wire.Binary().NewDecoder(bytes.NewReader(data))
		env, err := dec.Decode()
		if err != nil {
			return // malformed input is fine; panicking is not
		}
		// Stage 2: a successfully decoded envelope must survive both codecs
		// unchanged — this is the gob↔binary differential check.
		codecs := []wire.Codec{wire.Binary(), wire.Gob()}
		if rm, ok := env.Msg.(replyMsg); ok && rm.Transfer != nil && *rm.Transfer == (transferInfo{}) {
			// A pointer to an all-zero transferInfo is not a legal protocol
			// value, and gob's zero-field elision collapses it to nil; only
			// the binary codec is required to carry it exactly.
			codecs = codecs[:1]
		}
		for _, c := range codecs {
			want := env
			if c.Name() == wire.Gob().Name() {
				// The v0 gob frame is frozen for pre-handshake compatibility
				// and predates membership stages, so it drops Epoch; only the
				// v1 binary frame carries it.
				want.Epoch = 0
			}
			got, err := wire.RoundTrip(c, env)
			if err != nil {
				t.Fatalf("%s: re-encode of decoded envelope failed: %v", c.Name(), err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: round-trip = %+v, want %+v", c.Name(), got, want)
			}
		}
	})
}
