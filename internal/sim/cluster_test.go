package sim

import (
	"errors"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dqmx/internal/mutex"
	"dqmx/internal/obs"
)

// greedySite enters the CS the moment it is asked — with more than one site
// this violates mutual exclusion, which the cluster monitor must detect.
type greedySite struct {
	id   mutex.SiteID
	in   bool
	pend bool
}

func (g *greedySite) ID() mutex.SiteID { return g.id }
func (g *greedySite) InCS() bool       { return g.in }
func (g *greedySite) Pending() bool    { return g.pend }
func (g *greedySite) Request() mutex.Output {
	g.in = true
	return mutex.Output{Entered: true}
}
func (g *greedySite) Exit() mutex.Output {
	g.in = false
	return mutex.Output{}
}
func (g *greedySite) Deliver(mutex.Envelope) mutex.Output { return mutex.Output{} }

type greedyAlg struct{}

func (greedyAlg) Name() string { return "greedy" }
func (greedyAlg) NewSites(n int) ([]mutex.Site, error) {
	out := make([]mutex.Site, n)
	for i := range out {
		out[i] = &greedySite{id: mutex.SiteID(i)}
	}
	return out, nil
}

// stuckSite never makes progress: requests stay pending forever.
type stuckSite struct{ greedySite }

func (s *stuckSite) Request() mutex.Output {
	s.pend = true
	return mutex.Output{}
}

type stuckAlg struct{}

func (stuckAlg) Name() string { return "stuck" }
func (stuckAlg) NewSites(n int) ([]mutex.Site, error) {
	out := make([]mutex.Site, n)
	for i := range out {
		out[i] = &stuckSite{greedySite{id: mutex.SiteID(i)}}
	}
	return out, nil
}

func TestClusterDetectsSafetyViolation(t *testing.T) {
	c, err := NewCluster(Config{N: 3, Algorithm: greedyAlg{}, Seed: 1, CSTime: 100})
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 0)
	c.RequestAt(10, 1) // enters while site 0 still holds the CS
	c.Run(0)
	if err := c.Err(); !errors.Is(err, ErrSafetyViolation) {
		t.Fatalf("Err = %v, want safety violation", err)
	}
}

func TestClusterSingleGreedySiteIsFine(t *testing.T) {
	c, err := NewCluster(Config{N: 1, Algorithm: greedyAlg{}, Seed: 1, CSTime: 5})
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 0)
	c.RequestAt(100, 0)
	c.Run(0)
	if err := c.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if c.Completed() != 2 {
		t.Fatalf("Completed = %d, want 2", c.Completed())
	}
	// The greedy site enters the moment it asks. When each CS ended is not
	// stored; TestExitIsEnteredPlusCSTime checks what it is derived from.
	want := []CSRecord{{Site: 0, Requested: 0, Entered: 0}, {Site: 0, Requested: 100, Entered: 100}}
	if recs := c.Records(); !slices.Equal(recs, want) {
		t.Fatalf("records = %+v, want %+v", recs, want)
	}
}

func TestClusterDetectsStarvation(t *testing.T) {
	c, err := NewCluster(Config{N: 2, Algorithm: stuckAlg{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 0)
	c.Run(0)
	if err := c.Err(); !errors.Is(err, ErrStarvation) {
		t.Fatalf("Err = %v, want starvation", err)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	if _, err := NewCluster(Config{N: 0, Algorithm: greedyAlg{}}); err == nil {
		t.Error("accepted N=0")
	}
	if _, err := NewCluster(Config{N: 3}); err == nil {
		t.Error("accepted nil algorithm")
	}
}

func TestClusterIssueIgnoredWhileBusy(t *testing.T) {
	c, err := NewCluster(Config{N: 1, Algorithm: greedyAlg{}, CSTime: 100})
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 0)
	c.RequestAt(10, 0) // site still in CS: dropped
	c.Run(0)
	if c.Completed() != 1 {
		t.Fatalf("Completed = %d, want 1", c.Completed())
	}
}

// TestP99IsNearestRank checks the top-k selection against its definition:
// sort the sample, then take index ⌈0.99·n⌉ − 1. It covers every n up to
// 600 (k runs from 1 to 7) on random values with heavy ties, and on sorted
// and reverse-sorted input.
func TestP99IsNearestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 600; n++ {
		random := make([]Time, n)
		for i := range random {
			random[i] = Time(rng.Intn(n/4 + 1)) // each value about four times
		}
		ascending := make([]Time, n)
		for i := range ascending {
			ascending[i] = Time(i / 3)
		}
		descending := slices.Clone(ascending)
		slices.Reverse(descending)
		for name, xs := range map[string][]Time{"random": random, "sorted": ascending, "reverse-sorted": descending} {
			sorted := slices.Sorted(slices.Values(xs))
			want := sorted[int(math.Ceil(0.99*float64(n)))-1]
			if got := p99(slices.Values(xs), n); got != want {
				t.Fatalf("n=%d %s: p99 = %d, want %d", n, name, got, want)
			}
		}
	}
}

func TestClusterCrashedSiteCannotRequest(t *testing.T) {
	c, err := NewCluster(Config{N: 2, Algorithm: greedyAlg{}, CSTime: 5})
	if err != nil {
		t.Fatal(err)
	}
	c.CrashAt(0, 1)
	c.RequestAt(50, 1)
	c.Run(0)
	if c.Issued() != 0 {
		t.Fatalf("Issued = %d, want 0", c.Issued())
	}
	if err := c.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
}

// TestDetectorNoticeIsLocal: the lowest surviving site detects a crash and
// multicasts failure(f). Its own notice is local work: it lands at the
// detection instant and is not counted, while every other survivor's travels
// one network delay and counts once.
func TestDetectorNoticeIsLocal(t *testing.T) {
	landed := map[mutex.SiteID]Time{}
	c, err := NewCluster(Config{
		N: 4, Algorithm: stuckAlg{}, CSTime: 5,
		Delay: ConstantDelay{D: 100}, DetectDelay: 500,
		Observer: func(e obs.Event) {
			if e.Type == obs.EventFailure {
				landed[e.Site] = Time(e.Time)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.CrashAt(1000, 0)
	c.Run(0)
	want := map[mutex.SiteID]Time{1: 1500, 2: 1600, 3: 1600}
	if !maps.Equal(landed, want) {
		t.Errorf("failure notices landed %v, want %v", landed, want)
	}
	if got := c.Net.CountByKind()[mutex.KindFailure]; got != 2 || c.Net.Total() != 2 {
		t.Errorf("counted %d failure notices of %d messages, want 2 of 2", got, c.Net.Total())
	}
}
