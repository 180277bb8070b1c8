package wire

import (
	"encoding/gob"
	"fmt"
	"io"
	"reflect"

	"dqmx/internal/mutex"
)

// Wire version 0: the legacy encoding/gob stream. Kept byte-compatible with
// pre-codec builds — the struct below carries the same name-matched fields as
// the old transport wireEnvelope, and v0 streams begin directly with gob's
// type descriptors (no handshake preamble) so an old binary on the far end
// never sees anything it does not expect.

// gobCodec is the stateless wire-v0 codec.
type gobCodec struct{}

// Gob returns the wire-v0 gob codec.
func Gob() Codec { return gobCodec{} }

// Name implements Codec.
func (gobCodec) Name() string { return NameGob }

// Version implements Codec.
func (gobCodec) Version() byte { return VersionGob }

// NewEncoder implements Codec.
func (gobCodec) NewEncoder(w io.Writer) Encoder {
	return &gobEncoder{enc: gob.NewEncoder(w)}
}

// NewDecoder implements Codec.
func (gobCodec) NewDecoder(r io.Reader) Decoder {
	return &gobDecoder{dec: gob.NewDecoder(r)}
}

// wireEnvelope is the gob stream's frame. Gob matches struct fields by name,
// so these must stay aligned with what historical peers produced.
type wireEnvelope struct {
	Resource string
	From     mutex.SiteID
	To       mutex.SiteID
	Msg      mutex.Message
	Seq      uint64
	Ack      uint64
}

// gobEncoder adapts a gob stream to the Encoder interface. Gob encoders
// track which type descriptors they have already transmitted, so one must
// live exactly as long as its connection.
type gobEncoder struct {
	enc *gob.Encoder
}

// Encode implements Encoder. The v0 frame predates the inline body and
// names every message's struct type, so an inline payload is boxed here.
func (e *gobEncoder) Encode(env mutex.Envelope) error {
	msg := env.Msg
	if kind := env.Body.Kind; kind != mutex.BodyNone {
		in := inlineFor(kind)
		if in == nil {
			return fmt.Errorf("wire: body kind %d is not wire-registered", kind)
		}
		msg = in.Box(env.Body)
	}
	return e.enc.Encode(wireEnvelope{
		Resource: env.Resource,
		From:     env.From,
		To:       env.To,
		Msg:      msg,
		Seq:      env.Seq,
		Ack:      env.Ack,
	})
}

// gobDecoder adapts a gob stream to the Decoder interface.
type gobDecoder struct {
	dec *gob.Decoder
}

// Decode implements Decoder. Gob's decoder can panic on hostile input
// (malformed type descriptors), so the recover here converts that into a
// stream error the read loop handles like any other disconnect.
func (d *gobDecoder) Decode() (env mutex.Envelope, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("wire: gob decode panic: %v", r)
		}
	}()
	var we wireEnvelope
	if err := d.dec.Decode(&we); err != nil {
		return mutex.Envelope{}, err
	}
	env = mutex.Envelope{
		Resource: we.Resource,
		From:     we.From,
		To:       we.To,
		Msg:      we.Msg,
		Seq:      we.Seq,
		Ack:      we.Ack,
	}
	// The other half of the v0 boundary: a struct the body can hold moves
	// into it, so everything above the codec sees one carrier per type.
	if mc := regByType[reflect.TypeOf(we.Msg)]; mc != nil && mc.inline != nil {
		if body, ok := mc.inline.Unbox(we.Msg); ok {
			env.Body, env.Msg = body, nil
		}
	}
	return env, nil
}
