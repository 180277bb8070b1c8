package modelcheck

import (
	"bytes"
	"testing"

	"dqmx/internal/chaos"
	"dqmx/internal/core"
	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
)

// TestKeyCoversEverySettledFlag: at N = 9 the ledger holds 72
// settled-before facts between distinct sites, more than one machine word
// holds, and nine withdrawal marks. Two states whose ledgers differ in any
// one of them — the last, site 8 before site 7, included — must not share a
// key, or the order invariant is under-explored.
func TestKeyCoversEverySettledFlag(t *testing.T) {
	const n = 9
	ex, err := newExplorer(Config{Algorithm: core.Algorithm{Construction: coterie.Majority{}}, N: n})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ex.initial()
	if err != nil {
		t.Fatal(err)
	}
	differ := func(a, b chaos.Ledger) bool {
		x, y := st.clone(), st.clone()
		x.ledger, y.ledger = a, b
		return !bytes.Equal(x.appendKey(nil, false), y.appendKey(nil, false))
	}
	for j := mutex.SiteID(0); j < n; j++ {
		for i := mutex.SiteID(0); i < n; i++ {
			if i == j {
				continue
			}
			// Both ledgers end with j's settled wave and i's request
			// waiting; only in the first did j settle before i issued.
			before, after := chaos.NewLedger(n), chaos.NewLedger(n)
			before.Request(j, timestamp.Timestamp{Seq: 1, Site: j})
			after.Request(j, timestamp.Timestamp{Seq: 1, Site: j})
			before.Sent(j, mutex.KindRequest, true)
			after.Sent(j, mutex.KindRequest, true)
			before.Delivered(j)
			before.Request(i, timestamp.Timestamp{Seq: 2, Site: i})
			after.Request(i, timestamp.Timestamp{Seq: 2, Site: i})
			after.Delivered(j)
			if !differ(before, after) {
				t.Errorf("site %d settled before site %d: the fact does not reach the key", j, i)
			}
			if len(before.Enter(i, nil)) != 1 || len(after.Enter(i, nil)) != 0 {
				t.Fatalf("site %d settled before site %d: the fact does not decide the order rule", j, i)
			}
		}
		withdrawn, kept := chaos.NewLedger(n), chaos.NewLedger(n)
		withdrawn.Request(j, timestamp.Timestamp{Seq: 1, Site: j})
		kept.Request(j, timestamp.Timestamp{Seq: 1, Site: j})
		withdrawn.Withdrew(j)
		if !differ(withdrawn, kept) {
			t.Errorf("site %d's withdrawal mark does not reach the key", j)
		}
	}
}
