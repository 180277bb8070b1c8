package core

import (
	"fmt"
	"slices"
	"testing"

	"dqmx/internal/mutex"
)

// TestOutputLifetime pins the contract on mutex.Output from the site's side:
// a Send slice is valid until the next call on the same site, so a driver
// that keeps envelopes copies them — and the copies must stay intact however
// the site is stepped afterwards. The test interleaves Request, Deliver and
// Exit on one site that is in its own quorum (its grant to itself, its
// transfer to itself and its own release never leave the step), holding both
// the raw Outputs and driver-side copies, and checks three things: every
// copy still reads as its Output did when it was returned; the raw Outputs
// do not (the buffer really is reused, so a driver that skipped the copy
// would be caught here, not in production); and a clone shares no buffer
// with the site it was copied from.
func TestOutputLifetime(t *testing.T) {
	s := mkSite(0, 0, 1, 2) // in its own quorum, as grid sites are
	var (
		raws   []mutex.Output
		copies [][]mutex.Envelope
		want   []string // each Output rendered the moment it was returned
	)
	step := func(out mutex.Output) mutex.Output {
		raws = append(raws, out)
		copies = append(copies, slices.Clone(out.Send))
		want = append(want, fmt.Sprint(out.Send))
		return out
	}

	// Two full rounds: request (granted at once by the site's own arbiter),
	// grants from 1 and 2, a competing request queued behind ours (fail to
	// it, and a transfer to the holder, us), then exit forwarding to the
	// competitor.
	for round := uint64(1); round <= 2; round++ {
		step(s.Request())
		my := s.req.reqTS
		step(deliver(s, 1, replyMsg{Arbiter: 1, ReqTS: my}))
		step(deliver(s, 2, replyMsg{Arbiter: 2, ReqTS: my}))
		if !s.InCS() {
			t.Fatalf("round %d: not in CS after three grants", round)
		}
		rival := ts(my.Seq+1, 1)
		step(deliver(s, 1, requestMsg{TS: rival}))
		step(s.Exit())                                         // our own release moves the lock to the rival
		step(deliver(s, 1, releaseMsg{ReqTS: rival, Fwd: -1})) // rival done; arbiter free again
	}

	reused := false
	for i := range copies {
		if got := fmt.Sprint(copies[i]); got != want[i] {
			t.Errorf("step %d: driver-side copy changed\n got %s\nwant %s", i, got, want[i])
		}
		if fmt.Sprint(raws[i].Send) != want[i] {
			reused = true
		}
	}
	if !reused {
		t.Error("no held Output changed: the site no longer reuses its send buffer, and this test no longer guards the contract")
	}

	// A clone must not write into the original's buffer, nor the original
	// into the clone's.
	last := s.Request()
	lastWant := fmt.Sprint(last.Send)
	c := s.CloneForCheck()
	cOut := c.Deliver(carry(1, 0, requestMsg{TS: ts(last.Send[0].Body.TS.Seq+1, 1)}))
	cWant := fmt.Sprint(cOut.Send)
	if len(cOut.Send) == 0 {
		t.Fatal("the clone sent nothing for a competing request; the check below would be vacuous")
	}
	if got := fmt.Sprint(last.Send); got != lastWant {
		t.Errorf("stepping a clone rewrote the original's Output\n got %s\nwant %s", got, lastWant)
	}
	s.Deliver(carry(2, 0, requestMsg{TS: ts(last.Send[0].Body.TS.Seq+1, 2)}))
	if got := fmt.Sprint(cOut.Send); got != cWant {
		t.Errorf("stepping the original rewrote the clone's Output\n got %s\nwant %s", got, cWant)
	}
}
