// Package wire defines the versioned envelope codecs that carry
// mutex.Envelope values over a byte stream, and the registry that maps
// protocol message types onto them.
//
// Two codecs exist. Wire version 0 is the original encoding/gob stream:
// self-describing, allocation-heavy, and kept only so mixed-version clusters
// interoperate during a rolling upgrade. Wire version 1 is a hand-rolled
// binary format — fixed frame layout, varint-encoded integers, a
// per-connection interning table for resource names, and pooled scratch
// buffers — built for the transport's hot path, where gob's per-frame
// reflection and buffering dominated the per-message cost (see PROTOCOL.md
// "Wire format v1" for the exact byte layout).
//
// A codec instance is stateless; encoders and decoders are not. Both carry
// per-stream state (gob's type-descriptor tracking, v1's interning tables),
// so a new connection needs a new encoder/decoder pair — reusing one across
// connections desynchronizes the stream. Encoders and decoders that hold
// pooled buffers implement io.Closer; transports should Close them when the
// connection dies so the scratch returns to the pool.
//
// Message types register themselves with RegisterMessage from their
// package's init: the registration covers both codecs at once (the binary
// tag plus encode/decode functions, and the encoding/gob registration that
// used to be a separate public prerequisite). The seven §3.1 control
// messages, which an envelope carries by value in its Body, register with
// RegisterInline instead. The registry is written only during package
// initialization and read lock-free on the hot path.
package wire

import (
	"encoding/gob"
	"fmt"
	"io"
	"reflect"
	"sync"

	"dqmx/internal/mutex"
)

// Wire protocol versions, as carried in the connection handshake.
const (
	// VersionGob is wire version 0: the legacy encoding/gob stream.
	VersionGob byte = 0
	// VersionBinary is wire version 1: the hand-rolled binary format.
	VersionBinary byte = 1
	// MaxVersion is the newest version this build speaks.
	MaxVersion = VersionBinary
)

// Canonical codec names, as accepted by ForName (and the public
// dqmx.WireConfig.Codec knob).
const (
	NameGob    = "gob"
	NameBinary = "binary"
)

// Encoder writes envelopes as frames onto an underlying writer. Encoders
// carry per-stream state and must not be shared across connections or
// goroutines.
type Encoder interface {
	Encode(env mutex.Envelope) error
}

// Decoder reads envelope frames from an underlying reader. Malformed,
// truncated, or hostile input must surface as an error — never a panic —
// because the bytes come straight off a network socket.
type Decoder interface {
	Decode() (mutex.Envelope, error)
}

// Codec builds the encoder/decoder pair for one wire version. Codec values
// are stateless and safe to share.
type Codec interface {
	// Name is the codec's canonical name ("gob", "binary").
	Name() string
	// Version is the wire version byte carried in the handshake.
	Version() byte
	// NewEncoder builds a fresh per-connection encoder onto w.
	NewEncoder(w io.Writer) Encoder
	// NewDecoder builds a fresh per-connection decoder over r.
	NewDecoder(r io.Reader) Decoder
}

// ForVersion returns the codec speaking the given wire version.
func ForVersion(v byte) (Codec, error) {
	switch v {
	case VersionGob:
		return Gob(), nil
	case VersionBinary:
		return Binary(), nil
	}
	return nil, fmt.Errorf("wire: unknown wire version %d (max supported %d)", v, MaxVersion)
}

// ForName returns the codec with the given canonical name; the empty name
// selects the default (binary).
func ForName(name string) (Codec, error) {
	switch name {
	case "", NameBinary:
		return Binary(), nil
	case NameGob:
		return Gob(), nil
	}
	return nil, fmt.Errorf("wire: unknown codec %q (valid: %s, %s)", name, NameBinary, NameGob)
}

// msgCodec is one registered message type's binary wiring. typ is the
// prototype's type; inline is set for a tag whose message travels in the
// envelope's Body (enc and dec are then unused).
type msgCodec struct {
	tag    byte
	typ    reflect.Type
	enc    func(b []byte, m mutex.Message) []byte
	dec    func(r *Reader) (mutex.Message, error)
	inline *Inline
}

// Inline is the wiring of one mutex.BodyKind, the payload an envelope
// carries by value. Bodies pass through these functions by value too: a
// pointer handed to a function value would move the caller's envelope to the
// heap, which is the allocation the inline body exists to avoid.
type Inline struct {
	// Enc appends the body's binary-v1 field encoding.
	Enc func(b []byte, body mutex.Body) []byte
	// Dec parses what Enc (or EncBoxed) wrote. It returns the body — the
	// decoder stamps its Kind — or, for a shape only the boxed form can
	// hold, a non-nil message.
	Dec func(r *Reader) (mutex.Body, mutex.Message)
	// Box and Unbox convert between the body and its struct form, the
	// mutex.Message the v0 gob stream names on the wire. Unbox reports false
	// for a value the body cannot hold.
	Box   func(body mutex.Body) mutex.Message
	Unbox func(m mutex.Message) (mutex.Body, bool)
	// EncBoxed encodes such a value under the kind's tag; nil when Unbox
	// never fails.
	EncBoxed func(b []byte, m mutex.Message) []byte
}

// The registry. Written only from package init functions (which the runtime
// serializes before main), read lock-free by every encoder and decoder; regMu
// only orders the writes themselves.
var (
	regMu     sync.Mutex
	regByType = make(map[reflect.Type]*msgCodec)
	regByTag  [256]*msgCodec
)

// RegisterMessage wires one concrete message type into both codecs: enc
// appends the message's binary-v1 field encoding to b, dec parses it back,
// and the prototype is also registered with encoding/gob so the v0 stream
// can carry it as an interface value. tag must be unique and non-zero (tag 0
// is the nil payload of standalone ack frames). Call it from the message
// package's init; duplicate registrations panic.
func RegisterMessage(tag byte, prototype mutex.Message,
	enc func(b []byte, m mutex.Message) []byte,
	dec func(r *Reader) (mutex.Message, error)) {
	register(&msgCodec{tag: tag, enc: enc, dec: dec}, prototype)
}

// RegisterInline wires one inline body kind into both codecs; the kind's
// value is its binary tag. The v1 codec then moves the kind's messages
// between Envelope.Body and the wire without touching the heap, and the v0
// codec boxes and unboxes them at its own boundary so its frames stay what
// they were when the messages travelled behind Envelope.Msg.
func RegisterInline(kind mutex.BodyKind, c Inline) {
	register(&msgCodec{tag: byte(kind), inline: &c}, c.Box(mutex.Body{Kind: kind}))
}

func register(mc *msgCodec, prototype mutex.Message) {
	if mc.tag == 0 {
		panic("wire: tag 0 is reserved for the nil payload")
	}
	mc.typ = reflect.TypeOf(prototype)
	regMu.Lock()
	defer regMu.Unlock()
	if prev := regByTag[mc.tag]; prev != nil {
		panic(fmt.Sprintf("wire: tag %d registered twice (%v and %v)", mc.tag, prev.typ, mc.typ))
	}
	if _, dup := regByType[mc.typ]; dup {
		panic(fmt.Sprintf("wire: message type %v registered twice", mc.typ))
	}
	regByTag[mc.tag] = mc
	regByType[mc.typ] = mc
	// gob registration rides along: the v0 codec needs every concrete type
	// behind the Msg interface field registered by name. This used to be a
	// public prerequisite (core.RegisterGobMessages); now it is an
	// implementation detail of registering for the wire at all.
	gob.Register(prototype)
}

// inlineFor returns the wiring of a body kind, or nil when none is registered.
func inlineFor(kind mutex.BodyKind) *Inline {
	if mc := regByTag[kind]; mc != nil {
		return mc.inline
	}
	return nil
}

// appendPayload appends the tag + field encoding of the envelope's payload.
// No payload at all (the reliability sublayer's standalone ack frames) is
// tag 0 with no fields.
func appendPayload(b []byte, env *mutex.Envelope) ([]byte, error) {
	if kind := env.Body.Kind; kind != mutex.BodyNone {
		in := inlineFor(kind)
		if in == nil {
			return b, fmt.Errorf("wire: body kind %d is not wire-registered", kind)
		}
		return in.Enc(append(b, byte(kind)), env.Body), nil
	}
	m := env.Msg
	if m == nil {
		return append(b, 0), nil
	}
	mc := regByType[reflect.TypeOf(m)]
	if mc == nil {
		return b, fmt.Errorf("wire: message type %T is not wire-registered", m)
	}
	b = append(b, mc.tag)
	if in := mc.inline; in != nil {
		// The struct form of an inline kind: the same bytes as its body,
		// unless the body cannot hold it.
		if body, ok := in.Unbox(m); ok {
			return in.Enc(b, body), nil
		}
		return in.EncBoxed(b, m), nil
	}
	return mc.enc(b, m), nil
}

// decodePayload parses one tagged payload into the envelope.
func decodePayload(r *Reader, env *mutex.Envelope) error {
	tag := r.Byte()
	if tag == 0 {
		return r.Err()
	}
	mc := regByTag[tag]
	if mc == nil {
		return fmt.Errorf("wire: unknown message tag %d", tag)
	}
	if in := mc.inline; in != nil {
		env.Body, env.Msg = in.Dec(r)
		if env.Msg == nil {
			env.Body.Kind = mutex.BodyKind(tag)
		}
		return nil
	}
	var err error
	env.Msg, err = mc.dec(r)
	return err
}

// Tags reserved for transport- and mutex-level payloads. Protocol packages
// own their own disjoint ranges (core: 1–7, lamport: 16–18,
// ricart-agrawala: 20–21, maekawa: 24–29, singhal: 32–33,
// suzuki-kasami: 36–37, raymond: 40–41, session: 48–55).
const (
	// TagHeartbeat is claimed by internal/transport for its liveness probe.
	TagHeartbeat byte = 8
	// tagFailure carries mutex.FailureMsg (§6 crash notifications).
	tagFailure byte = 9
	// TagConfig is claimed by internal/transport for membership-stage
	// announcements (the answer a peer sends when it receives a frame
	// stamped with a stale configuration epoch).
	TagConfig byte = 10
)

func init() {
	RegisterMessage(tagFailure, mutex.FailureMsg{},
		func(b []byte, m mutex.Message) []byte {
			return AppendSite(b, m.(mutex.FailureMsg).Failed)
		},
		func(r *Reader) (mutex.Message, error) {
			return mutex.FailureMsg{Failed: r.Site()}, nil
		})
}
