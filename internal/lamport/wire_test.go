package lamport

import (
	"reflect"
	"testing"

	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
	"dqmx/internal/wire"
)

func TestWireRoundTrip(t *testing.T) {
	ts := timestamp.Timestamp{Seq: 5, Site: 2}
	for _, msg := range []mutex.Message{
		requestMsg{TS: ts},
		replyMsg{From: timestamp.Timestamp{Seq: 6, Site: 1}, Req: ts},
		releaseMsg{TS: ts},
	} {
		env := mutex.Envelope{From: 1, To: 2, Msg: msg}
		got, err := wire.RoundTrip(env)
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		if !reflect.DeepEqual(got, env) {
			t.Errorf("%T: got %+v, want %+v", msg, got, env)
		}
	}
}
