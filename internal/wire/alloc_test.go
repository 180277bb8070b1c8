//go:build !race

package wire

import (
	"bufio"
	"bytes"
	"testing"

	"dqmx/internal/mutex"
)

// TestAllocsBinaryDecode pins what "zero-allocation" means for the v1
// decoder: a frame costs nothing beyond the message value it returns. An
// ack frame (nil payload) and a payload small enough to sit in an interface
// without a heap copy decode with no allocation at all; any other payload
// costs the one allocation that boxing it needs. The frames name an interned
// resource, as live traffic on a named lock does.
func TestAllocsBinaryDecode(t *testing.T) {
	cases := []struct {
		name string
		msg  mutex.Message
		want float64
	}{
		{"ack frame", nil, 0},
		{"small payload", mutex.FailureMsg{Failed: 3}, 0},
		{"boxed payload", mutex.FailureMsg{Failed: 1 << 20}, 1},
	}
	for _, tc := range cases {
		var stream bytes.Buffer
		enc := Binary().NewEncoder(&stream)
		env := mutex.Envelope{Resource: "hot", From: 1, To: 2, Seq: 7, Ack: 6, Msg: tc.msg}
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
		dec := Binary().NewDecoder(br)
		if _, err := dec.Decode(); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, func() {
			src.Reset(frame)
			br.Reset(src)
			out, err := dec.Decode()
			if err != nil || out.Resource != "hot" || out.Msg != tc.msg {
				t.Fatalf("%s: decoded %+v, %v", tc.name, out, err)
			}
		})
		if got != tc.want {
			t.Errorf("%s: %.0f allocs per frame decode, want %.0f", tc.name, got, tc.want)
		}
	}
}
