package suzukikasami

import (
	"dqmx/internal/mutex"
	"dqmx/internal/wire"
)

// Binary wire registration (tags 36–37 in internal/wire's tag space).
const (
	tagRequest byte = iota + 36
	tagToken
)

func init() {
	wire.RegisterMessage(tagRequest, requestMsg{},
		func(b []byte, m mutex.Message) []byte {
			v := m.(requestMsg)
			b = wire.AppendSite(b, v.From)
			return wire.AppendUint(b, v.Num)
		},
		func(r *wire.Reader) (mutex.Message, error) {
			return requestMsg{From: r.Site(), Num: r.Uint()}, nil
		})

	wire.RegisterMessage(tagToken, tokenMsg{},
		func(b []byte, m mutex.Message) []byte {
			v := m.(tokenMsg)
			b = wire.AppendUint(b, uint64(len(v.LN)))
			for _, n := range v.LN {
				b = wire.AppendUint(b, n)
			}
			b = wire.AppendUint(b, uint64(len(v.Queue)))
			for _, s := range v.Queue {
				b = wire.AppendSite(b, s)
			}
			return b
		},
		func(r *wire.Reader) (mutex.Message, error) {
			// Empty slices decode to nil: the wire cannot tell an empty
			// slice from none, and the zero-valued token is what a fresh
			// site holds, so a round trip hands back an equal envelope.
			var v tokenMsg
			if n := r.Len(); n > 0 {
				v.LN = make([]uint64, n)
				for i := range v.LN {
					v.LN[i] = r.Uint()
				}
			}
			if n := r.Len(); n > 0 {
				v.Queue = make([]mutex.SiteID, n)
				for i := range v.Queue {
					v.Queue[i] = r.Site()
				}
			}
			return v, nil
		})
}
