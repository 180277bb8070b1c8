package transport

// White-box fuzzing of the TCP read path's frame decoding: whatever bytes a
// peer (or an attacker holding the port) sends, the wire decoder must
// return an error — never panic the reader goroutine.

import (
	"bytes"
	"testing"

	"dqmx/internal/clock"
	_ "dqmx/internal/core" // registers the protocol's wire messages
	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
	"dqmx/internal/wire"
)

// fuzzEnvelopes is realistic wire traffic for seeding: transport-level
// messages, sequenced reliability frames, a standalone cumulative ack, and —
// the second half — what a contended lock puts on a link: §3.1 messages by
// value in the envelope's body, stamped with a membership stage, alternating
// between two interned resource names.
func fuzzEnvelopes() [][]mutex.Envelope {
	ts := func(seq uint64, site mutex.SiteID) timestamp.Timestamp {
		return timestamp.Timestamp{Seq: seq, Site: site}
	}
	body := func(res string, seq uint64, b mutex.Body) mutex.Envelope {
		return mutex.Envelope{Resource: res, From: 1, To: 2, Seq: seq, Ack: seq - 1, Epoch: 2, Body: b}
	}
	return [][]mutex.Envelope{
		{{From: 1, To: 2, Msg: heartbeatMsg{From: 1}}},
		{{Resource: "orders", From: 3, To: 0, Msg: mutex.FailureMsg{Failed: 5}}},
		{
			{From: 0, To: 1, Msg: heartbeatMsg{From: 0}},
			{From: 1, To: 0, Msg: mutex.FailureMsg{Failed: 2}},
		},
		{{Resource: "orders", From: 2, To: 4, Msg: mutex.FailureMsg{Failed: 1}, Seq: 7, Ack: 3}},
		{{From: 4, To: 2, Ack: 9}},
		{
			{From: 0, To: 1, Msg: mutex.FailureMsg{Failed: 3}, Seq: 1},
			{From: 1, To: 0, Ack: 1},
			{From: 0, To: 1, Msg: mutex.FailureMsg{Failed: 3}, Seq: 2, Ack: 5},
		},
		{body("orders", 1, mutex.Body{Kind: mutex.BodyRequest, TS: ts(7, 1)})},
		{body("orders", 1, mutex.Body{Kind: mutex.BodyReply, Site: 2, TS: ts(7, 1), Flag: true, Site2: 2, TS2: ts(8, 3)})},
		{
			body("orders", 1, mutex.Body{Kind: mutex.BodyRelease, TS: ts(7, 1), Site: timestamp.None}),
			body("stock", 2, mutex.Body{Kind: mutex.BodyRelease, TS: ts(7, 1), Site: 3, TS2: ts(8, 3), Flag: true}),
		},
		{
			body("orders", 1, mutex.Body{Kind: mutex.BodyInquire, Site: 2, TS: ts(7, 1)}),
			body("orders", 2, mutex.Body{Kind: mutex.BodyYield, TS: ts(7, 1)}),
			body("stock", 3, mutex.Body{Kind: mutex.BodyFail, Site: 2, TS: ts(9, 1)}),
		},
		{body("", 1, mutex.Body{Kind: mutex.BodyTransfer, Site: 2, TS: ts(7, 1), TS2: timestamp.Max, Flag: true})},
		{{From: 3, To: 0, Epoch: 4, Msg: configMsg{From: 3, Stage: 4, N: 5}}},
	}
}

// fuzzSeeds encodes the seed traffic, so the fuzzer mutates realistic
// streams rather than noise.
func fuzzSeeds(t testing.TB) [][]byte {
	t.Helper()
	var seeds [][]byte
	for _, envs := range fuzzEnvelopes() {
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

func FuzzEnvelopeDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
		// Truncations exercise the mid-frame EOF paths.
		if len(seed) > 3 {
			f.Add(seed[:len(seed)/2])
			f.Add(seed[:len(seed)-1])
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := wire.Binary().NewDecoder(bytes.NewReader(data))
		defer dec.Close()
		// Decode a few frames like the read loop would; any error ends the
		// connection, and a panic escaping Decode fails the fuzz run by
		// crashing the process.
		for i := 0; i < 4; i++ {
			if _, err := dec.Decode(); err != nil {
				break
			}
		}
	})
}

// FuzzAckFrameDecode goes one layer deeper than FuzzEnvelopeDecode: frames
// that do decode are fed through a live reliable-delivery endpoint, so
// adversarial Seq/Ack values (huge acks, duplicate seqs, gaps, ack-only
// frames with garbage metadata) must neither panic the sublayer nor wedge
// its bookkeeping.
func FuzzAckFrameDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The fuzz goroutine steps the layer as a site loop would.
		rel := newReliable(senderFunc(func(env mutex.Envelope) error { return nil }), func(mutex.Envelope) {}, func() {}, nil, clock.Real)
		dec := wire.Binary().NewDecoder(bytes.NewReader(data))
		defer dec.Close()
		for i := 0; i < 8; i++ {
			env, err := dec.Decode()
			if err != nil {
				break
			}
			rel.Receive(env)
		}
		rel.flush()
		// The endpoint must remain usable after hostile input.
		if err := rel.Send(mutex.Envelope{From: 100, To: 101, Msg: mutex.FailureMsg{Failed: 1}}); err != nil {
			t.Fatalf("endpoint wedged after fuzzed input: %v", err)
		}
	})
}

// TestDecodeTruncated pins the non-fuzz guarantee: truncated and garbage
// frames error out of the decoder without panicking.
func TestDecodeTruncated(t *testing.T) {
	decodeAll := func(data []byte) error {
		dec := wire.Binary().NewDecoder(bytes.NewReader(data))
		defer dec.Close()
		for i := 0; i < 16; i++ {
			if _, err := dec.Decode(); err != nil {
				return err
			}
		}
		return nil
	}
	for _, seed := range fuzzSeeds(t) {
		for cut := 0; cut < len(seed); cut += 1 + len(seed)/16 {
			if decodeAll(seed[:cut]) == nil {
				t.Errorf("stream cut at %d of %d decoded 16 frames", cut, len(seed))
			}
		}
	}
	if decodeAll([]byte{0x07, 0xff, 0x81, 0x03, 0x01, 0x01}) == nil {
		t.Fatal("garbage stream decoded without error")
	}
}
