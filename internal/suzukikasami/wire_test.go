package suzukikasami

import (
	"reflect"
	"testing"

	"dqmx/internal/mutex"
	"dqmx/internal/wire"
)

func TestWireRoundTrip(t *testing.T) {
	for _, msg := range []mutex.Message{
		requestMsg{From: 3, Num: 17},
		tokenMsg{LN: []uint64{0, 4, 2}, Queue: []mutex.SiteID{2, 0}},
		tokenMsg{}, // empty token: nil slices must survive the round trip
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
