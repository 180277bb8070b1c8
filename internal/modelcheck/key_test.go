package modelcheck

import (
	"bytes"
	"testing"

	"dqmx/internal/core"
	"dqmx/internal/coterie"
)

// TestKeyCoversEverySettledFlag: at N = 9 there are 81 settled-before flags,
// more than one machine word holds, and two states that differ in any one of
// them — the last, settled[80], included — must not share a key, or the order
// invariant is under-explored.
func TestKeyCoversEverySettledFlag(t *testing.T) {
	ex, err := newExplorer(Config{Algorithm: core.Algorithm{Construction: coterie.Majority{}}, N: 9})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ex.initial()
	if err != nil {
		t.Fatal(err)
	}
	key := st.appendKey(nil, false)
	for i := range st.settled {
		other := st.clone()
		other.settled[i] = true
		if bytes.Equal(other.appendKey(nil, false), key) {
			t.Errorf("settled[%d] does not reach the key", i)
		}
	}
}
