package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
)

func TestAppendReaderPrimitives(t *testing.T) {
	var b []byte
	b = AppendUint(b, 0)
	b = AppendUint(b, 1<<40)
	b = AppendSite(b, mutex.SiteID(7))
	b = AppendSite(b, timestamp.None)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendString(b, "rsrc-a")
	b = AppendString(b, "")
	b = AppendTimestamp(b, timestamp.Max)
	b = AppendTimestamp(b, timestamp.Timestamp{Seq: 42, Site: 3})

	r := NewReader(b)
	if got := r.Uint(); got != 0 {
		t.Errorf("Uint = %d, want 0", got)
	}
	if got := r.Uint(); got != 1<<40 {
		t.Errorf("Uint = %d, want %d", got, uint64(1)<<40)
	}
	if got := r.Site(); got != 7 {
		t.Errorf("Site = %d, want 7", got)
	}
	if got := r.Site(); got != timestamp.None {
		t.Errorf("Site = %d, want None (%d)", got, timestamp.None)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip mismatch")
	}
	if got := r.String(); got != "rsrc-a" {
		t.Errorf("String = %q, want rsrc-a", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("String = %q, want empty", got)
	}
	if got := r.Timestamp(); !got.IsMax() {
		t.Errorf("Timestamp = %v, want Max", got)
	}
	if got := r.Timestamp(); got.Seq != 42 || got.Site != 3 {
		t.Errorf("Timestamp = %v, want {42 3}", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestReaderSentinelCosts(t *testing.T) {
	// The sentinel values must stay single-byte plus flag, not 10-byte varints.
	if n := len(AppendSite(nil, timestamp.None)); n != 1 {
		t.Errorf("None site encodes in %d bytes, want 1", n)
	}
	if n := len(AppendTimestamp(nil, timestamp.Max)); n != 1 {
		t.Errorf("Max timestamp encodes in %d bytes, want 1", n)
	}
}

func TestReaderHostileInput(t *testing.T) {
	cases := map[string][]byte{
		"empty uvarint":         nil,
		"overlong uvarint":      bytes.Repeat([]byte{0x80}, 11),
		"bad bool":              {2},
		"bad timestamp flag":    {9},
		"string past end":       append(AppendUint(nil, 100), 'x'),
		"truncated timestamp":   {1, 42},
		"missing byte entirely": {},
	}
	for name, data := range cases {
		r := NewReader(data)
		switch name {
		case "empty uvarint", "overlong uvarint":
			r.Uint()
		case "bad bool":
			r.Bool()
		case "bad timestamp flag", "truncated timestamp":
			r.Timestamp()
		case "string past end":
			_ = r.String()
		case "missing byte entirely":
			r.Byte()
		}
		if r.Err() == nil {
			t.Errorf("%s: expected sticky error, got nil", name)
		}
	}
	// The error sticks: later reads return zero values, no panic.
	r := NewReader([]byte{0x80})
	r.Uint()
	if r.Byte() != 0 || r.Site() != 0 || r.String() != "" {
		t.Error("reads after failure should return zero values")
	}
}

func TestReaderLenBounded(t *testing.T) {
	// A hostile element count larger than the remaining bytes must fail
	// before any allocation sized by it.
	b := AppendUint(nil, 1<<50)
	r := NewReader(b)
	if n := r.Len(); n != 0 || r.Err() == nil {
		t.Fatalf("Len = %d err = %v; want 0 and an error", n, r.Err())
	}
}

func testEnvelope(res string) mutex.Envelope {
	return mutex.Envelope{
		Resource: res,
		From:     2,
		To:       5,
		Msg:      mutex.FailureMsg{Failed: 3},
		Seq:      9,
		Ack:      4,
	}
}

func TestRoundTrip(t *testing.T) {
	for _, env := range []mutex.Envelope{
		testEnvelope(""),
		testEnvelope("named-lock"),
		{From: 1, To: 2, Seq: 100, Ack: 99},            // nil Msg: standalone ack frame
		{From: 1, To: 2, Seq: 100, Ack: 99, Epoch: 12}, // stamped with a membership stage
	} {
		got, err := RoundTrip(env)
		if err != nil {
			t.Fatalf("RoundTrip(%+v): %v", env, err)
		}
		if !reflect.DeepEqual(got, env) {
			t.Errorf("round-trip = %+v, want %+v", got, env)
		}
	}
}

func TestBinaryInterning(t *testing.T) {
	var buf bytes.Buffer
	enc := Binary().NewEncoder(&buf)
	env := testEnvelope("a-reasonably-long-resource-name")
	if err := enc.Encode(env); err != nil {
		t.Fatal(err)
	}
	first := buf.Len()
	if err := enc.Encode(env); err != nil {
		t.Fatal(err)
	}
	second := buf.Len() - first
	if second >= first {
		t.Errorf("second frame (%dB) not smaller than first (%dB); interning not effective", second, first)
	}
	if second > 10 {
		t.Errorf("interned frame is %dB, want ≤10 (name must not repeat)", second)
	}
	dec := Binary().NewDecoder(&buf)
	for i := 0; i < 2; i++ {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, env) {
			t.Errorf("frame %d = %+v, want %+v", i, got, env)
		}
	}
}

func TestBinaryInterningTableFull(t *testing.T) {
	enc := Binary().NewEncoder(io.Discard)
	for i := 0; i < maxInternedNames; i++ {
		if err := enc.Encode(testEnvelope(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatalf("name %d: %v", i, err)
		}
	}
	if err := enc.Encode(testEnvelope("one-too-many")); err == nil {
		t.Fatal("expected interning-table-full error")
	}
	// The default resource and already-interned names still work.
	if err := enc.Encode(testEnvelope("")); err != nil {
		t.Fatalf("default resource after full table: %v", err)
	}
	if err := enc.Encode(testEnvelope("r0")); err != nil {
		t.Fatalf("interned name after full table: %v", err)
	}
}

func TestBinaryEncodeErrorKeepsTableConsistent(t *testing.T) {
	// An encode failure after a fresh name appears must not commit the name:
	// otherwise the encoder's next interned reference would point at a table
	// entry the decoder never learned.
	var buf bytes.Buffer
	enc := Binary().NewEncoder(&buf)
	bad := testEnvelope("fresh-name")
	bad.Msg = unregisteredMsg{}
	if err := enc.Encode(bad); err == nil {
		t.Fatal("expected unregistered-message error")
	}
	if buf.Len() != 0 {
		t.Fatalf("failed encode wrote %d bytes", buf.Len())
	}
	good := testEnvelope("fresh-name")
	if err := enc.Encode(good); err != nil {
		t.Fatal(err)
	}
	got, err := Binary().NewDecoder(&buf).Decode()
	if err != nil {
		t.Fatalf("decode after failed encode: %v", err)
	}
	if !reflect.DeepEqual(got, good) {
		t.Errorf("decoded %+v, want %+v", got, good)
	}
}

type unregisteredMsg struct{}

func (unregisteredMsg) Kind() string { return "unregistered" }

// TestRegisterDuplicateTagNamesBothTypes: the panic says which type holds
// the tag, not just which one wanted it.
func TestRegisterDuplicateTagNamesBothTypes(t *testing.T) {
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{"tag 9", "mutex.FailureMsg", "wire.unregisteredMsg"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q does not mention %q", msg, want)
			}
		}
	}()
	RegisterMessage(tagFailure, unregisteredMsg{}, nil, nil)
}

func TestBinaryDecodeHostileFrames(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		enc := Binary().NewEncoder(&buf)
		if err := enc.Encode(testEnvelope("x")); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	cases := map[string][]byte{
		"zero length":        {0},
		"huge length":        binary.AppendUvarint(nil, maxFrame+1),
		"announced not sent": binary.AppendUvarint(nil, 500),
		"truncated frame":    valid[:len(valid)-2],
		"unknown tag":        frameWith(t, func(b []byte) []byte { return append(b, 0xEE) }),
		"trailing bytes":     frameWith(t, func(b []byte) []byte { return append(b, 0, 1, 2, 3) }),
		"bad resource code":  frame(t, AppendUint(nil, 99)), // table is empty
		"empty interned":     frame(t, append([]byte{1}, AppendString(nil, "")...)),
	}
	for name, data := range cases {
		dec := Binary().NewDecoder(bytes.NewReader(data))
		if _, err := dec.Decode(); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}
	// Retired tags are never reused: a peer that still sends one is refused
	// by tag, not decoded as something else. 24 was internal/maekawa's
	// request; the rest were the five baselines' codecs (lamport 16–18,
	// ricart-agrawala 20–21, singhal 32–33, suzuki-kasami 36–37, raymond
	// 40–41).
	for _, tag := range []byte{24, 16, 17, 18, 20, 21, 32, 33, 36, 37, 40, 41} {
		retired := frameWith(t, func(b []byte) []byte {
			return AppendTimestamp(append(b, tag), timestamp.Timestamp{Seq: 5, Site: 2})
		})
		_, err := Binary().NewDecoder(bytes.NewReader(retired)).Decode()
		if want := fmt.Sprintf("unknown message tag %d", tag); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("retired tag %d: got %v, want the unknown-tag error", tag, err)
		}
	}
}

// frame wraps a payload in a length prefix.
func frame(t *testing.T, payload []byte) []byte {
	t.Helper()
	return append(binary.AppendUvarint(nil, uint64(len(payload))), payload...)
}

// frameWith builds a payload with a valid envelope prefix (default resource,
// From, To, Seq, Ack, Epoch) and lets the caller corrupt the message section.
func frameWith(t *testing.T, f func([]byte) []byte) []byte {
	t.Helper()
	b := []byte{0} // default resource
	b = AppendSite(b, 1)
	b = AppendSite(b, 2)
	b = AppendUint(b, 3)
	b = AppendUint(b, 4)
	b = AppendUint(b, 0)
	return frame(t, f(b))
}

func BenchmarkEncode(b *testing.B) {
	enc := Binary().NewEncoder(io.Discard)
	env := testEnvelope("bench-resource")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(env); err != nil {
			b.Fatal(err)
		}
	}
}
