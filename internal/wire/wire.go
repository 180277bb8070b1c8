// Package wire defines the one format that carries mutex.Envelope values over
// a byte stream — the connection handshake, the frame codec, and the registry
// that maps protocol message types onto frame tags.
//
// The format is wire version 1: a hand-rolled binary framing with a fixed
// frame layout, varint-encoded integers, a per-connection interning table for
// resource names, and pooled scratch buffers (PROTOCOL.md "Wire format v1"
// gives the exact byte layout). Wire version 0, a gob stream, was
// retired: a peer that still opens with it is refused at the handshake with
// ErrV0Retired.
//
// Encoders and decoders carry per-stream state (the interning tables), so a
// new connection needs a new pair — reusing one across connections
// desynchronizes the stream. Both hold pooled scratch; Close them when the
// connection dies so it returns to the pool.
//
// Message types register themselves with RegisterMessage from their
// package's init: a frame tag plus encode/decode functions. The seven §3.1
// control messages and the session tier's lock request and reply, which an
// envelope carries by value in its Body, register with RegisterInline
// instead. The registry is written only during package initialization and
// read lock-free on the hot path.
package wire

import (
	"fmt"
	"reflect"
	"sync"

	"dqmx/internal/mutex"
)

// Version is the wire version this build speaks, as carried in the
// connection handshake.
const Version byte = 1

// msgCodec is one registered tag's wiring. typ is the type that travels
// behind Envelope.Msg under the tag (nil for an inline kind with no such
// shape) and enc its encoder; a message tag decodes with dec, an inline kind's
// tag with inline.Dec.
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
	// Enc appends the body's field encoding.
	Enc func(b []byte, body mutex.Body) []byte
	// Dec parses what Enc (or EncBoxed) wrote. It returns the body — the
	// decoder stamps its Kind — or, for a shape only the boxed form can
	// hold, a non-nil message.
	Dec func(r *Reader) (mutex.Body, mutex.Message)
	// Boxed, when non-nil, is the prototype of the one struct type that
	// travels behind Envelope.Msg under the kind's tag — a shape of the kind
	// its body cannot hold — and EncBoxed that type's encoder.
	Boxed    mutex.Message
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

// RegisterMessage wires one concrete message type into the codec: enc
// appends the message's field encoding to b, dec parses it back. tag must be
// unique and non-zero (tag 0 is the nil payload of standalone ack frames).
// Call it from the message package's init; duplicate registrations panic.
func RegisterMessage(tag byte, prototype mutex.Message,
	enc func(b []byte, m mutex.Message) []byte,
	dec func(r *Reader) (mutex.Message, error)) {
	register(&msgCodec{tag: tag, typ: reflect.TypeOf(prototype), enc: enc, dec: dec})
}

// RegisterInline wires one inline body kind into the codec; the kind's value
// is its tag. The codec then moves the kind's messages between Envelope.Body
// and the wire without touching the heap.
func RegisterInline(kind mutex.BodyKind, c Inline) {
	mc := &msgCodec{tag: byte(kind), enc: c.EncBoxed, inline: &c}
	if c.Boxed != nil {
		mc.typ = reflect.TypeOf(c.Boxed)
	}
	register(mc)
}

func register(mc *msgCodec) {
	if mc.tag == 0 {
		panic("wire: tag 0 is reserved for the nil payload")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if prev := regByTag[mc.tag]; prev != nil {
		panic(fmt.Sprintf("wire: tag %d registered twice (%v and %v)", mc.tag, prev.typ, mc.typ))
	}
	regByTag[mc.tag] = mc
	if mc.typ == nil {
		return
	}
	if _, dup := regByType[mc.typ]; dup {
		panic(fmt.Sprintf("wire: message type %v registered twice", mc.typ))
	}
	regByType[mc.typ] = mc
}

// AppendPayload appends the tag + field encoding of the envelope's payload,
// the bytes a v1 frame carries after its header. No payload at all (the
// reliability sublayer's standalone ack frames) is tag 0 with no fields. The
// encoding is self-delimiting: the decoder reads exactly these bytes back.
func AppendPayload(b []byte, env *mutex.Envelope) ([]byte, error) {
	if kind := env.Body.Kind; kind != mutex.BodyNone {
		mc := regByTag[kind]
		if mc == nil || mc.inline == nil {
			return b, fmt.Errorf("wire: body kind %d is not wire-registered", kind)
		}
		return mc.inline.Enc(append(b, byte(kind)), env.Body), nil
	}
	m := env.Msg
	if m == nil {
		return append(b, 0), nil
	}
	mc := regByType[reflect.TypeOf(m)]
	if mc == nil {
		return b, fmt.Errorf("wire: message type %T is not wire-registered", m)
	}
	return mc.enc(append(b, mc.tag), m), nil
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

// Tags reserved for transport- and mutex-level payloads. The live stack's
// other owners hold disjoint ranges (core: 1–7, session: 48–55). Retired
// ranges stay reserved and are never reused, so an old peer's frame is
// refused as an unknown tag: 24–29 were internal/maekawa's until Maekawa
// became a hand-off path of core; 16–18, 20–21, 32–33, 36–37 and 40–41 were
// the lamport, ricart-agrawala, singhal, suzuki-kasami and raymond codecs,
// retired when those baselines became simulator- and in-process-only.
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
