package harness

import (
	"slices"
	"strings"
	"testing"
)

func TestSelectEvaluation(t *testing.T) {
	ids := func(only string) []string {
		sel, err := SelectEvaluation(only)
		if err != nil {
			t.Fatalf("%q: %v", only, err)
		}
		var got []string
		for _, e := range sel {
			got = append(got, e.ID)
		}
		return got
	}
	if got := ids(""); !slices.Equal(got, EvaluationIDs()) {
		t.Errorf("empty selection = %v, want every table", got)
	}
	if got := ids("e3"); !slices.Equal(got, []string{"e3", "e3b"}) {
		t.Errorf("e3 selects %v, want e3 and e3b", got)
	}
	if got := ids(" MultiSeed,e1,"); !slices.Equal(got, []string{"e1", "multiseed"}) {
		t.Errorf("selection = %v, want e1 and multiseed in evaluation order", got)
	}
	_, err := SelectEvaluation("e1,e14")
	if err == nil || !strings.Contains(err.Error(), `"e14"`) || !strings.Contains(err.Error(), "e3b") {
		t.Errorf("unknown id: err = %v, want it named along with the valid ids", err)
	}
}
