package transport

// White-box benchmark of the per-destination TCP writer: a flood of
// transport-level envelopes from one peer to a sink peer over real loopback,
// measuring the allocation cost of the enqueue → encode → flush path. The
// queue double-buffering, bufio.Writer recycling, and the encoder's pooled
// scratch exist for this number; run with -benchmem to see it.

import (
	"testing"
	"time"

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
	// Wait for the writer to drain so encode/flush costs land inside the
	// measured window rather than leaking into the next benchmark.
	for {
		o.mu.Lock()
		queued := len(o.queue)
		o.mu.Unlock()
		if queued == 0 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
}
