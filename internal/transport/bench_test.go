package transport

// White-box benchmark of a destination's TCP write path: a flood of
// transport-level envelopes from one peer to a sink peer over real loopback,
// measuring the cost of the enqueue → encode → write path as the sender's
// goroutine runs it when it takes the write role. The queue double-buffering,
// the reused encoded-batch buffer, the write callback bound once per
// destination and the encoder's pooled scratch exist for this number; run
// with -benchmem to see it.

import (
	"testing"

	"dqmx/internal/mutex"
)

// benchSite is an inert protocol site: the benchmark traffic is transport
// heartbeats, which never reach the resource layer.
type benchSite struct{ id mutex.SiteID }

func (s benchSite) ID() mutex.SiteID                  { return s.id }
func (benchSite) Request() mutex.Output               { return mutex.Output{} }
func (benchSite) Exit() mutex.Output                  { return mutex.Output{} }
func (benchSite) Deliver(mutex.Envelope) mutex.Output { return mutex.Output{} }
func (benchSite) InCS() bool                          { return false }
func (benchSite) Pending() bool                       { return false }

func BenchmarkTCPWriter(b *testing.B) {
	sinkCfg := TCPConfig{
		Self:       1,
		Factory:    func(string) (mutex.Site, error) { return benchSite{id: 1}, nil },
		ListenAddr: "127.0.0.1:0",
	}
	sink, err := NewTCPPeerConfig(sinkCfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	src, err := NewTCPPeerConfig(TCPConfig{
		Self:       0,
		Factory:    func(string) (mutex.Site, error) { return benchSite{id: 0}, nil },
		ListenAddr: "127.0.0.1:0",
		Peers:      map[mutex.SiteID]string{1: sink.Addr()},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()

	// Heartbeats are transport-owned, best-effort, and unordered: they skip
	// the sequencing machinery and exercise exactly the writer under test.
	env := mutex.Envelope{From: 0, To: 1, Msg: heartbeatMsg{From: 0}}
	o, err := src.outboundFor(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Send(env); err != nil {
			b.Fatal(err)
		}
	}
	// Wait for the write role to be released, not for the queue to empty:
	// the holder takes the whole queue as its batch before it writes, so an
	// empty queue says nothing about the writes still in flight. This keeps
	// encode and write costs inside the measured window rather than leaking
	// into the next benchmark.
	waitWriteRole(b, o)
}
