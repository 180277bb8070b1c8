//go:build !race

package wire_test

import (
	"bufio"
	"bytes"
	"testing"

	_ "dqmx/internal/core" // registers the seven inline kinds
	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
	"dqmx/internal/wire"
)

// TestAllocsBinaryDecode pins what "zero-allocation" means for the v1
// decoder. Each of the seven §3.1 messages decodes into the envelope's
// inline body with no allocation at all, piggybacked parts included; so do
// an ack frame (no payload) and an open-set payload small enough to sit in
// an interface without a heap copy. Any other payload behind Msg costs the
// one allocation that boxing it needs — that is what the open carrier
// costs, and why the messages the protocol counts are not on it. The frames
// name an interned resource, as live traffic on a named lock does.
func TestAllocsBinaryDecode(t *testing.T) {
	ts := func(seq uint64, site mutex.SiteID) timestamp.Timestamp {
		return timestamp.Timestamp{Seq: seq, Site: site}
	}
	cases := []struct {
		name string
		env  mutex.Envelope
		want float64
	}{
		{"ack frame", mutex.Envelope{}, 0},
		{"small payload", mutex.Envelope{Msg: mutex.FailureMsg{Failed: 3}}, 0},
		{"boxed payload", mutex.Envelope{Msg: mutex.FailureMsg{Failed: 1 << 20}}, 1},
		{"request", mutex.Envelope{Body: mutex.Body{Kind: mutex.BodyRequest, TS: ts(900, 4)}}, 0},
		{"reply", mutex.Envelope{Body: mutex.Body{Kind: mutex.BodyReply, Site: 2, TS: ts(900, 4)}}, 0},
		{"reply+transfer", mutex.Envelope{Body: mutex.Body{Kind: mutex.BodyReply, Flag: true, Site: 2, Site2: 2, TS: ts(900, 4), TS2: ts(901, 7)}}, 0},
		{"release", mutex.Envelope{Body: mutex.Body{Kind: mutex.BodyRelease, Site: 7, TS: ts(900, 4), TS2: ts(901, 7)}}, 0},
		{"inquire", mutex.Envelope{Body: mutex.Body{Kind: mutex.BodyInquire, Site: 2, TS: ts(900, 4)}}, 0},
		{"fail", mutex.Envelope{Body: mutex.Body{Kind: mutex.BodyFail, Site: 2, TS: ts(900, 4)}}, 0},
		{"yield", mutex.Envelope{Body: mutex.Body{Kind: mutex.BodyYield, TS: ts(900, 4)}}, 0},
		{"transfer+inquire", mutex.Envelope{Body: mutex.Body{Kind: mutex.BodyTransfer, Flag: true, Site: 2, TS: ts(900, 4), TS2: ts(901, 7)}}, 0},
	}
	for _, tc := range cases {
		var stream bytes.Buffer
		enc := wire.Binary().NewEncoder(&stream)
		env := tc.env
		env.Resource, env.From, env.To, env.Seq, env.Ack = "hot", 1, 2, 7, 6
		if err := enc.Encode(env); err != nil { // carries the name as a literal
			t.Fatal(err)
		}
		first := stream.Len()
		if err := enc.Encode(env); err != nil { // refers to the interned name
			t.Fatal(err)
		}
		frame := stream.Bytes()[first:]

		src := bytes.NewReader(stream.Bytes()[:first])
		br := bufio.NewReader(src)
		dec := wire.Binary().NewDecoder(br)
		if _, err := dec.Decode(); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, func() {
			src.Reset(frame)
			br.Reset(src)
			out, err := dec.Decode()
			if err != nil || out != env {
				t.Fatalf("%s: decoded %+v, %v", tc.name, out, err)
			}
		})
		if got != tc.want {
			t.Errorf("%s: %.0f allocs per frame decode, want %.0f", tc.name, got, tc.want)
		}
	}
}
