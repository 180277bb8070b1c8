package transport

// Handshake unit tests over net.Pipe — the golden bytes under both magics,
// and every stranger the handshake turns away — plus one against a live
// peer's listener: a refused connection is closed and leaves nothing behind.

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dqmx/internal/mutex"
	"dqmx/internal/wire"
)

// rawDialer plays a dialer that writes opening and, when answer is not nil,
// expects exactly those bytes back; it returns the pipe's listening end.
func rawDialer(t *testing.T, opening, answer []byte) net.Conn {
	t.Helper()
	cs, ls := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		cs.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := cs.Write(opening); err != nil {
			return // the listener hung up mid-opening, as a refusal may
		}
		if answer == nil {
			if n, _ := cs.Read(make([]byte, 1)); n != 0 {
				t.Errorf("opening % x was answered", opening)
			}
			return
		}
		got := make([]byte, len(answer))
		if _, err := io.ReadFull(cs, got); err != nil || !bytes.Equal(got, answer) {
			t.Errorf("opening % x: answer % x (%v), want % x", opening, got, err, answer)
		}
	}()
	// Both ends stay open until the test is over: a pipe refuses even
	// SetDeadline once its far end has closed.
	t.Cleanup(func() {
		ls.Close()
		<-done // no goroutine outlives a refused handshake
		cs.Close()
	})
	return ls
}

// rawListener plays a listener that expects exactly the given preamble and
// answers with answer; it returns the pipe's dialing end.
func rawListener(t *testing.T, preamble, answer []byte) net.Conn {
	t.Helper()
	cs, ls := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		ls.SetDeadline(time.Now().Add(5 * time.Second))
		got := make([]byte, len(preamble))
		if _, err := io.ReadFull(ls, got); err != nil || !bytes.Equal(got, preamble) {
			t.Errorf("preamble % x (%v), want % x", got, err, preamble)
			return
		}
		ls.Write(answer)
	}()
	t.Cleanup(func() {
		cs.Close()
		<-done
		ls.Close()
	})
	return cs
}

func TestHandshakeNegotiation(t *testing.T) {
	magics := []struct {
		name  string
		magic byte
	}{{"peer", wire.MagicPeer}, {"session", wire.MagicSession}}

	// The handshake's bytes, pinned: 00 'D' 'Q' <magic> 01, answered 01.
	golden := map[byte][]byte{
		wire.MagicPeer:    {0x00, 0x44, 0x51, 0x58, 0x01},
		wire.MagicSession: {0x00, 0x44, 0x51, 0x53, 0x01},
	}

	t.Run("binary-binary", func(t *testing.T) {
		env := mutex.Envelope{Resource: "hs", From: 1, To: 2, Msg: mutex.FailureMsg{Failed: 3}, Seq: 4, Ack: 5, Epoch: 6}
		for _, m := range magics {
			if err := wire.Accept(rawDialer(t, golden[m.magic], []byte{1}), m.magic, time.Second); err != nil {
				t.Errorf("%s: Accept of the golden preamble: %v", m.name, err)
			}
			if err := wire.Offer(rawListener(t, golden[m.magic], []byte{1}), m.magic, time.Second); err != nil {
				t.Errorf("%s: Offer against the golden answer: %v", m.name, err)
			}
			// Both real halves, then a frame across the negotiated stream.
			cs, ls := net.Pipe()
			defer cs.Close()
			defer ls.Close()
			sent := make(chan error, 1)
			go func() {
				err := wire.Offer(cs, m.magic, time.Second)
				if err == nil {
					enc := wire.Binary().NewEncoder(cs)
					defer enc.Close()
					err = enc.Encode(env)
				}
				sent <- err
			}()
			if err := wire.Accept(ls, m.magic, time.Second); err != nil {
				t.Fatalf("%s: inbound handshake: %v", m.name, err)
			}
			dec := wire.Binary().NewDecoder(ls)
			defer dec.Close()
			got, err := dec.Decode()
			if err != nil {
				t.Fatalf("%s: decode: %v", m.name, err)
			}
			if err := <-sent; err != nil {
				t.Fatalf("%s: outbound handshake/encode: %v", m.name, err)
			}
			if !reflect.DeepEqual(got, env) {
				t.Errorf("%s: round-trip = %+v, want %+v", m.name, got, env)
			}
		}
	})

	t.Run("offered-2-answers-1", func(t *testing.T) {
		for _, m := range magics {
			opening := append(append([]byte(nil), golden[m.magic][:4]...), 2)
			if err := wire.Accept(rawDialer(t, opening, []byte{1}), m.magic, time.Second); err != nil {
				t.Errorf("%s: a newer dialer was refused: %v", m.name, err)
			}
		}
	})

	t.Run("offered-0", func(t *testing.T) {
		for _, m := range magics {
			opening := append(append([]byte(nil), golden[m.magic][:4]...), 0)
			err := wire.Accept(rawDialer(t, opening, nil), m.magic, time.Second)
			if !errors.Is(err, wire.ErrV0Retired) {
				t.Errorf("%s: offered version 0: %v, want ErrV0Retired", m.name, err)
			}
		}
	})

	t.Run("answered-0", func(t *testing.T) {
		for _, m := range magics {
			err := wire.Offer(rawListener(t, golden[m.magic], []byte{0}), m.magic, time.Second)
			if !errors.Is(err, wire.ErrV0Retired) {
				t.Errorf("%s: answered version 0: %v, want ErrV0Retired", m.name, err)
			}
		}
	})

	t.Run("answered-above-offer", func(t *testing.T) {
		err := wire.Offer(rawListener(t, golden[wire.MagicPeer], []byte{2}), wire.MagicPeer, time.Second)
		if err == nil || errors.Is(err, wire.ErrV0Retired) {
			t.Errorf("answered version 2 to an offer of 1: %v", err)
		}
	})

	// A v0 peer sent no preamble: its stream opened with a gob message
	// length, never 0x00. One such byte is enough to be refused — the
	// listener does not wait out its timeout for four more.
	t.Run("gob-opening-byte", func(t *testing.T) {
		for _, m := range magics {
			start := time.Now()
			err := wire.Accept(rawDialer(t, []byte{0x35}, nil), m.magic, 5*time.Second)
			if !errors.Is(err, wire.ErrV0Retired) {
				t.Errorf("%s: gob opening byte: %v, want ErrV0Retired", m.name, err)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("%s: refusal took %v", m.name, d)
			}
		}
	})

	// A session client on a peer port, and a peer on a session port.
	t.Run("wrong-magic", func(t *testing.T) {
		for _, tc := range []struct{ dialer, listener byte }{
			{wire.MagicSession, wire.MagicPeer},
			{wire.MagicPeer, wire.MagicSession},
		} {
			err := wire.Accept(rawDialer(t, golden[tc.dialer], nil), tc.listener, time.Second)
			if err == nil || errors.Is(err, wire.ErrV0Retired) || !strings.Contains(err.Error(), "magic") {
				t.Errorf("dialer %q on a %q port: %v, want a magic mismatch", tc.dialer, tc.listener, err)
			}
		}
	})
}

func TestHandshakeRejectsGarbage(t *testing.T) {
	// A preamble with bad magic must fail the inbound side.
	if err := wire.Accept(rawDialer(t, []byte{0x00, 'X', 'X', 'X', 1}, nil), wire.MagicPeer, time.Second); err == nil {
		t.Error("bad magic accepted")
	}

	// Silence must time out, not hang the read loop forever.
	cs, ls := net.Pipe()
	defer cs.Close()
	defer ls.Close()
	start := time.Now()
	if err := wire.Accept(ls, wire.MagicPeer, 50*time.Millisecond); err == nil {
		t.Error("silent connection accepted")
	} else if time.Since(start) > 2*time.Second {
		t.Error("handshake timeout did not bound the wait")
	}

	// A live peer's listener: every stranger is hung up on without a byte in
	// answer, and its read loop ends with the connection.
	peer, err := NewTCPPeerConfig(TCPConfig{Factory: defaultOnly(benchSite{id: 0}), ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	before := runtime.NumGoroutine()
	for _, opening := range [][]byte{
		{0x35, 0xff, 0x00, 0x01}, // a wire-v0 gob stream
		{0x00, 'D', 'Q', 'X', 0}, // version 0 in a preamble
		{0x00, 'D', 'Q', 'S', 1}, // a session client
		[]byte("GET / HTTP/1.0\r\n\r\n"),
	} {
		conn, err := net.Dial("tcp", peer.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		conn.Write(opening)
		if n, err := conn.Read(make([]byte, 1)); n != 0 || err == nil {
			t.Errorf("opening % x: read %d bytes, err %v; want a hang-up", opening, n, err)
		}
		conn.Close()
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the refusals, %d before", n, before)
	}
}
