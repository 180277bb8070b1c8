package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"dqmx/internal/mutex"
)

// Binary wire format, version 1. One frame per envelope:
//
//	uvarint  payload length (bytes that follow; 1..maxFrame)
//	payload:
//	  uvarint  resource code: 0 = default resource, 1 = literal (uvarint
//	           length + bytes, appended to the connection's interning table),
//	           k ≥ 2 = interning-table entry k−2
//	  varint   From (zigzag)
//	  varint   To (zigzag)
//	  uvarint  Seq
//	  uvarint  Ack
//	  uvarint  Epoch (membership stage; 0 until a reconfiguration)
//	  byte     message tag (0 = no payload: a standalone ack frame, or a gap report when Seq > 0)
//	  ...      the registered message encoding for that tag (the same bytes
//	           whether the message sat in Envelope.Body or Envelope.Msg)
//
// All integers are little-endian base-128 varints (encoding/binary). The
// interning table is per-connection state built identically on both sides
// from the literal escapes, so a named lock's resource string crosses the
// wire once per connection instead of once per message. PROTOCOL.md "Wire
// format v1" documents the layout normatively.

const (
	// maxFrame bounds one frame's payload so a hostile length prefix cannot
	// force a giant allocation. Generous against real traffic: the largest
	// legitimate payloads — core's §6 refresh request naming every other site
	// dead at N=4096 (~8 KB), a session grant listing a thousand held locks
	// of maximal name length (~130 KB) — stay under it.
	maxFrame = 1 << 20
	// maxInternedNames bounds the per-connection interning table; a sender
	// that overflows it (thousands of distinct resource names on one
	// connection) gets a stream error, not unbounded receiver memory.
	maxInternedNames = 1 << 12
)

// Codec is the constructor pair of the one wire format. The type and Binary
// are what remains of a codec-selection seam: the repository benchmark, which
// this package may not break, builds its encoders and decoders through them.
type Codec struct{}

// Binary returns the wire-v1 codec.
func Binary() Codec { return Codec{} }

// NewEncoder builds a fresh per-connection encoder onto w.
func (Codec) NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w, buf: getBuf(), names: make(map[string]uint64)}
}

// NewDecoder builds a fresh per-connection decoder over r.
func (Codec) NewDecoder(r io.Reader) *Decoder {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &Decoder{r: br, buf: getBuf()}
}

// Encoder writes envelopes as frames onto an underlying writer (the
// transport's bufio.Writer), through a reused scratch buffer. Steady state
// allocates nothing: the scratch grows to the high-water frame size once, and
// interned names are map hits after their first appearance. An encoder
// carries per-stream state and must not be shared across connections or
// goroutines.
type Encoder struct {
	w     io.Writer
	buf   *[]byte
	names map[string]uint64
	// lenBuf is scratch for the frame length prefix. A local array would
	// escape to the heap through the io.Writer interface call; as a field it
	// costs one allocation for the encoder's whole lifetime.
	lenBuf [binary.MaxVarintLen64]byte
}

// Encode writes one frame.
func (e *Encoder) Encode(env mutex.Envelope) error {
	if e.buf == nil {
		return errors.New("wire: encoder is closed")
	}
	b := (*e.buf)[:0]
	b, newName, err := e.appendResource(b, env.Resource)
	if err != nil {
		return err
	}
	b = AppendSite(b, env.From)
	b = AppendSite(b, env.To)
	b = AppendUint(b, env.Seq)
	b = AppendUint(b, env.Ack)
	b = AppendUint(b, env.Epoch)
	b, err = AppendPayload(b, &env)
	*e.buf = b // keep the grown backing array either way
	if err != nil {
		return err
	}
	if len(b) > maxFrame {
		return fmt.Errorf("wire: frame payload %d bytes exceeds limit %d", len(b), maxFrame)
	}
	// Commit the interning entry only once the frame is certain to reach the
	// writer: an encode error above must not leave the table ahead of what
	// the decoder has seen. (A failed Write tears the connection — and this
	// encoder — down, so partial writes cannot desynchronize a live stream.)
	if newName != "" {
		e.names[newName] = uint64(len(e.names)) + 2
	}
	n := binary.PutUvarint(e.lenBuf[:], uint64(len(b)))
	if _, err := e.w.Write(e.lenBuf[:n]); err != nil {
		return err
	}
	_, err = e.w.Write(b)
	return err
}

// appendResource emits the resource's interning code, using the literal
// escape on a name's first appearance. A new name is returned rather than
// committed: Encode adds it to the table only when the frame goes out.
func (e *Encoder) appendResource(b []byte, name string) ([]byte, string, error) {
	if name == "" {
		return append(b, 0), "", nil
	}
	if id, ok := e.names[name]; ok {
		return AppendUint(b, id), "", nil
	}
	if len(e.names) >= maxInternedNames {
		return b, "", fmt.Errorf("wire: interning table full (%d names on one connection)", maxInternedNames)
	}
	b = append(b, 1)
	return AppendString(b, name), name, nil
}

// Close returns the scratch buffer to the pool. The encoder is unusable
// afterwards.
func (e *Encoder) Close() error {
	putBuf(e.buf)
	e.buf = nil
	return nil
}

// Decoder reads frames into a reused scratch buffer and parses them in
// place. Its interning table mirrors the peer encoder's, entry for entry,
// because both sides process the same frames in the same stream order.
// Malformed, truncated, or hostile input surfaces as an error — never a
// panic — because the bytes come straight off a network socket.
type Decoder struct {
	r     *bufio.Reader
	buf   *[]byte
	names []string
	// rd parses each frame in turn. It lives here because message decoders
	// are called through the registry's function values, which would move a
	// per-frame Reader to the heap.
	rd Reader
}

// Decode reads one frame.
func (d *Decoder) Decode() (mutex.Envelope, error) {
	if d.buf == nil {
		return mutex.Envelope{}, errors.New("wire: decoder is closed")
	}
	n, err := binary.ReadUvarint(d.r)
	if err != nil {
		return mutex.Envelope{}, err
	}
	if n == 0 || n > maxFrame {
		return mutex.Envelope{}, fmt.Errorf("wire: frame payload length %d out of range (1..%d)", n, maxFrame)
	}
	buf := *d.buf
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	*d.buf = buf
	if _, err := io.ReadFull(d.r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // a frame announced bytes it never sent
		}
		return mutex.Envelope{}, err
	}
	r := &d.rd
	*r = Reader{data: buf}
	var env mutex.Envelope
	env.Resource = d.readResource(r)
	env.From = r.Site()
	env.To = r.Site()
	env.Seq = r.Uint()
	env.Ack = r.Uint()
	env.Epoch = r.Uint()
	if err := decodePayload(r, &env); err != nil {
		return mutex.Envelope{}, err
	}
	if err := r.Err(); err != nil {
		return mutex.Envelope{}, err
	}
	if r.Remaining() != 0 {
		return mutex.Envelope{}, fmt.Errorf("wire: %d trailing bytes after frame", r.Remaining())
	}
	return env, nil
}

// readResource resolves the frame's resource code against the table.
func (d *Decoder) readResource(r *Reader) string {
	code := r.Uint()
	switch {
	case r.Err() != nil:
		return ""
	case code == 0:
		return ""
	case code == 1:
		name := r.String()
		if r.Err() != nil {
			return ""
		}
		if name == "" {
			r.Fail("interned empty resource name")
			return ""
		}
		if len(d.names) >= maxInternedNames {
			r.Fail("interning table full")
			return ""
		}
		d.names = append(d.names, name)
		return name
	default:
		i := code - 2
		if i >= uint64(len(d.names)) {
			r.Fail("resource code %d beyond interning table (%d entries)", code, len(d.names))
			return ""
		}
		return d.names[i]
	}
}

// Close returns the scratch buffer to the pool. The decoder is unusable
// afterwards.
func (d *Decoder) Close() error {
	putBuf(d.buf)
	d.buf = nil
	return nil
}
