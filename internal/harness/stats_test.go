package harness

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAggregateMoments(t *testing.T) {
	a := aggregate([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if a.Runs != 8 {
		t.Errorf("Runs = %d", a.Runs)
	}
	if a.Mean != 5 {
		t.Errorf("Mean = %v, want 5", a.Mean)
	}
	if math.Abs(a.Std-2.138) > 0.01 {
		t.Errorf("Std = %v, want ≈2.138", a.Std)
	}
	if want := 1.96 * a.Std / math.Sqrt(8); math.Abs(a.CI95-want) > 1e-12 {
		t.Errorf("CI95 = %v, want 1.96·std/√8 = %v", a.CI95, want)
	}
}

func TestAggregateMean(t *testing.T) {
	if got := aggregate([]float64{1, 2, 3}).Mean; got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := aggregate(nil).Mean; got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestAggregateEmptyAndSingle(t *testing.T) {
	if a := aggregate(nil); a != (Aggregate{}) {
		t.Errorf("empty sample: %+v, want zero", a)
	}
	if a := aggregate([]float64{42}); a != (Aggregate{Mean: 42, Runs: 1}) {
		t.Errorf("single run: %+v, want mean 42, std 0, CI 0", a)
	}
}

// Shifting every run by c moves the mean by c and leaves the spread alone.
func TestAggregateShiftInvariant(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)) }
	check := func(runs []int16, c int16) bool {
		xs := make([]float64, len(runs))
		shifted := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = float64(r)
			shifted[i] = float64(r) + float64(c)
		}
		a, b := aggregate(xs), aggregate(shifted)
		if len(runs) == 0 {
			return a == b
		}
		return near(b.Mean, a.Mean+float64(c)) && near(b.Std, a.Std) && near(b.CI95, a.CI95)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
