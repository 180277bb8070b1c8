package core

import (
	"dqmx/internal/mutex"
	"dqmx/internal/wire"
)

// Wire registration for the seven §3.1 control messages. Their frame tags
// are the mutex.BodyKind values (1–7, the range internal/wire reserves for
// core), and the codec encodes from and decodes into the envelope's inline
// body directly. Field order in each encode function is the normative v1
// layout documented in PROTOCOL.md; changing it is a wire-format break
// (TestGoldenFrames pins the bytes).
//
// The §6 refresh request is the one shape that travels boxed, as a
// requestMsg behind Envelope.Msg under the request's tag.

func init() {
	wire.RegisterInline(mutex.BodyRequest, wire.Inline{
		Enc: func(b []byte, m mutex.Body) []byte {
			b = wire.AppendTimestamp(b, m.TS)
			// A flag byte separates the common first-send request from the
			// §6 crash-refresh form carrying the requester's known-dead set.
			return wire.AppendBool(b, false)
		},
		Boxed: requestMsg{},
		EncBoxed: func(b []byte, m mutex.Message) []byte {
			v := m.(requestMsg)
			b = wire.AppendTimestamp(b, v.TS)
			if !v.Refresh {
				return wire.AppendBool(b, false)
			}
			b = wire.AppendBool(b, true)
			b = wire.AppendUint(b, uint64(len(v.Dead)))
			for _, f := range v.Dead {
				b = wire.AppendSite(b, f)
			}
			return b
		},
		Dec: func(r *wire.Reader) (mutex.Body, mutex.Message) {
			ts := r.Timestamp()
			if !r.Bool() {
				return mutex.Body{TS: ts}, nil
			}
			v := requestMsg{TS: ts, Refresh: true}
			if n := r.Len(); n > 0 {
				v.Dead = make([]mutex.SiteID, 0, n)
				for i := 0; i < n; i++ {
					v.Dead = append(v.Dead, r.Site())
				}
			}
			return mutex.Body{}, v
		},
	})

	wire.RegisterInline(mutex.BodyReply, wire.Inline{
		Enc: func(b []byte, m mutex.Body) []byte {
			b = wire.AppendSite(b, m.Site)
			b = wire.AppendTimestamp(b, m.TS)
			// A flag byte separates the common no-transfer reply from the
			// piggybacked A.4 form.
			if !m.Flag {
				return wire.AppendBool(b, false)
			}
			b = wire.AppendBool(b, true)
			b = wire.AppendSite(b, m.Site2)
			return wire.AppendTimestamp(b, m.TS2)
		},
		Dec: func(r *wire.Reader) (mutex.Body, mutex.Message) {
			m := mutex.Body{Site: r.Site(), TS: r.Timestamp()}
			if r.Bool() {
				m.Flag, m.Site2, m.TS2 = true, r.Site(), r.Timestamp()
			}
			return m, nil
		},
	})

	wire.RegisterInline(mutex.BodyRelease, wire.Inline{
		Enc: func(b []byte, m mutex.Body) []byte {
			b = wire.AppendTimestamp(b, m.TS)
			b = wire.AppendSite(b, m.Site) // timestamp.None (−1) zigzags to one byte
			b = wire.AppendTimestamp(b, m.TS2)
			return wire.AppendBool(b, m.Flag)
		},
		Dec: func(r *wire.Reader) (mutex.Body, mutex.Message) {
			return mutex.Body{TS: r.Timestamp(), Site: r.Site(), TS2: r.Timestamp(), Flag: r.Bool()}, nil
		},
	})

	wire.RegisterInline(mutex.BodyInquire, wire.Inline{
		Enc: appendSiteTS,
		Dec: readSiteTS,
	})

	wire.RegisterInline(mutex.BodyFail, wire.Inline{
		Enc: appendSiteTS,
		Dec: readSiteTS,
	})

	wire.RegisterInline(mutex.BodyYield, wire.Inline{
		Enc: func(b []byte, m mutex.Body) []byte { return wire.AppendTimestamp(b, m.TS) },
		Dec: func(r *wire.Reader) (mutex.Body, mutex.Message) {
			return mutex.Body{TS: r.Timestamp()}, nil
		},
	})

	wire.RegisterInline(mutex.BodyTransfer, wire.Inline{
		Enc: func(b []byte, m mutex.Body) []byte {
			b = wire.AppendSite(b, m.Site)
			b = wire.AppendTimestamp(b, m.TS2)
			b = wire.AppendTimestamp(b, m.TS)
			return wire.AppendBool(b, m.Flag)
		},
		Dec: func(r *wire.Reader) (mutex.Body, mutex.Message) {
			return mutex.Body{Site: r.Site(), TS2: r.Timestamp(), TS: r.Timestamp(), Flag: r.Bool()}, nil
		},
	})
}

// inquire and fail share a layout: the arbiter, then the timestamp.
func appendSiteTS(b []byte, m mutex.Body) []byte {
	b = wire.AppendSite(b, m.Site)
	return wire.AppendTimestamp(b, m.TS)
}

func readSiteTS(r *wire.Reader) (mutex.Body, mutex.Message) {
	return mutex.Body{Site: r.Site(), TS: r.Timestamp()}, nil
}
