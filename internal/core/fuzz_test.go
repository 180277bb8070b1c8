package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
)

// TestRobustnessAgainstArbitraryMessages throws randomly generated protocol
// messages — stale, inconsistent, self-contradictory — at a live site and
// checks that it never panics, never fabricates a CS entry (Entered implies
// every quorum permission is genuinely marked held), and keeps its arbiter
// queue ordered. This models Byzantine-free but arbitrarily delayed and
// reordered traffic beyond what even a misbehaving network could produce.
func TestRobustnessAgainstArbitraryMessages(t *testing.T) {
	assign, err := (coterie.Grid{}).Assign(9)
	if err != nil {
		t.Fatal(err)
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := newSite(4, 9, assign.Quorum(4), coterie.Grid{})
		s.Request()
		randTS := func() timestamp.Timestamp {
			if rng.Intn(8) == 0 {
				return timestamp.Max
			}
			return timestamp.Timestamp{Seq: uint64(rng.Intn(5)), Site: mutex.SiteID(rng.Intn(9))}
		}
		randSite := func() mutex.SiteID { return mutex.SiteID(rng.Intn(9)) }
		for i := 0; i < 400; i++ {
			var msg any
			switch rng.Intn(8) {
			case 0:
				msg = requestMsg{TS: randTS()}
			case 1:
				var tr *transferInfo
				if rng.Intn(2) == 0 {
					tr = &transferInfo{Arbiter: randSite(), TargetTS: randTS()}
				}
				msg = replyMsg{Arbiter: randSite(), ReqTS: randTS(), Transfer: tr}
			case 2:
				msg = releaseMsg{ReqTS: randTS(), Fwd: randSite(), FwdTS: randTS(), Withdraw: rng.Intn(2) == 0}
			case 3:
				msg = releaseMsg{ReqTS: randTS(), Fwd: timestamp.None}
			case 4:
				msg = inquireMsg{Arbiter: randSite(), HolderTS: randTS()}
			case 5:
				msg = failMsg{Arbiter: randSite(), ReqTS: randTS()}
			case 6:
				msg = yieldMsg{ReqTS: randTS()}
			default:
				msg = transferMsg{
					Transfer: transferInfo{Arbiter: randSite(), TargetTS: randTS()},
					HolderTS: randTS(),
					Inquire:  rng.Intn(2) == 0,
				}
			}
			out := s.Deliver(carry(randSite(), 4, msg))
			if out.Entered {
				// A fabricated entry would be a safety bug.
				for _, q := range s.req.quorum {
					if !s.req.replied.has(q) {
						return false
					}
				}
				s.Exit()
				s.Request()
			}
			// The arbiter queue must stay strictly ordered and duplicate-free.
			for k := 1; k < s.arb.queue.Len(); k++ {
				if !s.arb.queue.items[k-1].Less(s.arb.queue.items[k]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
