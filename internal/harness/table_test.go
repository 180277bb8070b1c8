package harness

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := NewTable("algorithm", "msgs/cs", "delay")
	tab.AddRow("maekawa", 39.13, "2T")
	tab.AddRow("delay-optimal", 38.9, "T")
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"algorithm", "39.13", "38.90", "delay-optimal", "2T"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + rule + 2 rows
		t.Errorf("got %d lines, want 4", len(lines))
	}
}
