package ricartagrawala

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
		replyMsg{Req: ts},
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
