package core

import (
	"testing"

	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
)

// Micro-benchmarks for the protocol hot paths (these size the state machine
// itself; the paper's experiments live in the repository-root bench file).

func BenchmarkQueuePushPop(b *testing.B) {
	b.ReportAllocs()
	var q tsQueue
	for i := 0; i < b.N; i++ {
		for k := 0; k < 16; k++ {
			q.Push(timestamp.Timestamp{Seq: uint64(k * 7 % 16), Site: mutex.SiteID(k)})
		}
		for !q.Empty() {
			q.Pop()
		}
	}
}

func BenchmarkArbiterRequestReleaseCycle(b *testing.B) {
	b.ReportAllocs()
	assign, err := (coterie.Grid{}).Assign(25)
	if err != nil {
		b.Fatal(err)
	}
	s := newSite(0, 25, assign.Quorum(0), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := timestamp.Timestamp{Seq: uint64(i + 1), Site: 5}
		s.Deliver(carry(5, 0, requestMsg{TS: ts}))
		s.Deliver(carry(5, 0, releaseMsg{ReqTS: ts, Fwd: timestamp.None}))
	}
}

func BenchmarkRequesterFullHandshake(b *testing.B) {
	b.ReportAllocs()
	assign, err := (coterie.Grid{}).Assign(25)
	if err != nil {
		b.Fatal(err)
	}
	quorum := assign.Quorum(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newSite(0, 25, quorum, nil)
		s.Request()
		my := s.req.reqTS
		for _, j := range quorum {
			s.Deliver(carry(j, 0, replyMsg{Arbiter: j, ReqTS: my}))
		}
		if !s.InCS() {
			b.Fatal("handshake failed")
		}
		s.Exit()
	}
}
