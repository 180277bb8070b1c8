package sim_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dqmx/internal/core"
	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
	"dqmx/internal/obs"
	"dqmx/internal/sim"
	"dqmx/internal/workload"
)

// goldenRuns are five simulations whose results are pinned by
// TestGoldenResults: a fault-free saturated grid, the section-6 recovery path
// twice over (the first crash lands inside a CS, whose record is left
// incomplete and skipped), link failures, random delays under think-time
// load, and a crash run whose times, delays and CS length all lie past 32
// bits. The first two runs record more than 1 024 critical sections each.
var goldenRuns = []struct {
	name  string
	build func() (*sim.Cluster, error)
	cut   int // CS entries a crash cuts short
	want  string
}{
	{
		name: "grid9-saturated",
		build: func() (*sim.Cluster, error) {
			c, err := sim.NewCluster(sim.Config{
				N: 9, Algorithm: core.Algorithm{Construction: coterie.Grid{}},
				Delay: sim.ConstantDelay{D: 1000}, Seed: 1, CSTime: 10,
			})
			if err == nil {
				workload.Saturated(c, 300)
			}
			return c, err
		},
		want: "delay-optimal(maekawa-grid) n=9 completed=2700 total=52184 fail=10792 release=10800 reply=10800 request=10800 transfer=8992 msgs/cs=19.327407407407406 sync=1.3330863282697296 resp=12.074292592592592 resp99=12.09 wait=12.064292592592592 wait99=12.08 tput=0.7442116868798235 samples=2699 records=2700/32d4c50427990cf6",
	},
	{
		name: "tree15-two-crashes",
		build: func() (*sim.Cluster, error) {
			c, err := sim.NewCluster(sim.Config{
				N: 15, Algorithm: core.Algorithm{Construction: coterie.Tree{}},
				Delay: sim.ConstantDelay{D: 1000}, Seed: 2, CSTime: 10,
			})
			if err == nil {
				workload.Saturated(c, 100)
				c.CrashAt(213_435, 0) // inside site 0's CS (213 430–213 440)
				c.CrashAt(400_000, 3)
			}
			return c, err
		},
		cut:  1,
		want: "delay-optimal(ae-tree) n=15 completed=1312 total=31958 fail=6927 failure=25 release=6909 reply=6913 request=7016 transfer=4163 yield=5 msgs/cs=24.358231707317074 sync=1.5090617848970251 resp=16.210095274390245 resp99=72.48 wait=16.200095274390243 wait99=72.47 tput=0.657808974680371 samples=1311 records=1312/b62bfbcf561b472c",
	},
	{
		name: "tree15-cut-links",
		build: func() (*sim.Cluster, error) {
			c, err := sim.NewCluster(sim.Config{
				N: 15, Algorithm: core.Algorithm{Construction: coterie.Tree{}},
				Delay: sim.ConstantDelay{D: 1000}, Seed: 4, CSTime: 10,
			})
			if err == nil {
				workload.Saturated(c, 20)
				c.CutLinkAt(1500, 7, 1)
				c.CutLinkAt(60_000, 9, 4)
			}
			return c, err
		},
		want: "delay-optimal(ae-tree) n=15 completed=300 total=4512 fail=903 release=956 reply=977 request=967 transfer=690 yield=19 msgs/cs=15.04 sync=1.4768227424749163 resp=17.952466666666666 resp99=49.42 wait=17.942466666666668 wait99=49.41 tput=0.6702862122126148 samples=299 records=300/585322c8bf4a6545",
	},
	{
		name: "grid9-uniform-poisson",
		build: func() (*sim.Cluster, error) {
			c, err := sim.NewCluster(sim.Config{
				N: 9, Algorithm: core.Algorithm{Construction: coterie.Grid{}},
				Delay: sim.UniformDelay{Lo: 500, Hi: 1500}, Seed: 7, CSTime: 10,
			})
			if err == nil {
				workload.ClosedPoisson(c, 2000, 30, 8)
			}
			return c, err
		},
		want: "delay-optimal(maekawa-grid) n=9 completed=270 total=5174 fail=1063 release=1080 reply=1083 request=1080 transfer=865 yield=3 msgs/cs=19.16296296296296 sync=1.581910780669145 resp=12.068274074074074 resp99=16.342 wait=12.058274074074074 wait99=16.332 tput=0.6238620294462879 samples=269 records=270/fd8e4baba599cdc6",
	},
	{
		name: "tree15-past-32-bits",
		build: func() (*sim.Cluster, error) {
			// Site 6 crashes halfway through its fourth CS, wherever the
			// schedule puts it.
			var c *sim.Cluster
			entries := 0
			c, err := sim.NewCluster(sim.Config{
				N: 15, Algorithm: core.Algorithm{Construction: coterie.Tree{}},
				Delay: sim.UniformDelay{Lo: 1 << 33, Hi: 1 << 34}, Seed: 11, CSTime: 1 << 32,
				Observer: func(e obs.Event) {
					if e.Type != obs.EventEnter || e.Site != 6 {
						return
					}
					if entries++; entries == 4 {
						c.CrashAt(sim.Time(e.Time)+c.CSTime()/2, 6)
					}
				},
			})
			if err == nil {
				workload.Saturated(c, 20)
			}
			return c, err
		},
		cut:  1,
		want: "delay-optimal(ae-tree) n=15 completed=283 total=4293 fail=880 failure=13 release=883 reply=886 request=921 transfer=708 yield=2 msgs/cs=15.169611307420494 sync=1.5459240473587788 resp=21.59249144607581 resp99=63.027712465496734 wait=21.25915811274248 wait99=62.6943791321634 tput=0.5304588149198431 samples=282 records=283/505f8af498888a02",
	},
}

// TestGoldenResults pins every field of Summarize's Result and a hash of
// Records() for each golden run. Floats are printed in their shortest
// round-trip form, so two renderings are equal exactly when the bits are. A
// change to how the simulator stores or summarizes its records must leave
// every line unchanged.
func TestGoldenResults(t *testing.T) {
	for _, run := range goldenRuns {
		c, err := run.build()
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		c.Run(0)
		if err := c.Err(); err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if got := fingerprint(c); got != run.want {
			t.Errorf("%s:\n got  %s\n want %s", run.name, got, run.want)
		}
	}
}

// TestExitIsEnteredPlusCSTime checks what a CSRecord relies on to leave its
// exit out: in every golden run, the i-th OnExit is the i-th record's site
// leaving the CS at that record's Entered + CSTime, and there are as many
// records as exits. A CS cut short by a crash never exits, so a record for
// it would break the count or shift every later pair; the two crash runs
// each cut one.
func TestExitIsEnteredPlusCSTime(t *testing.T) {
	type exit struct {
		site mutex.SiteID
		at   sim.Time
	}
	for _, run := range goldenRuns {
		c, err := run.build()
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		var exits []exit
		next := c.OnExit
		c.OnExit = func(c *sim.Cluster, s mutex.SiteID) {
			exits = append(exits, exit{s, c.Kernel.Now()})
			if next != nil {
				next(c, s)
			}
		}
		c.Run(0)
		if err := c.Err(); err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		recs := c.Records()
		if len(recs) != len(exits) {
			t.Fatalf("%s: %d records for %d exits", run.name, len(recs), len(exits))
		}
		for i, r := range recs {
			if e := exits[i]; e.site != r.Site || e.at != r.Entered+c.CSTime() {
				t.Fatalf("%s: exit %d is site %d at %d, record %+v exits at %d",
					run.name, i, e.site, e.at, r, r.Entered+c.CSTime())
			}
		}
		if cut := sim.CutEntries(c); cut != run.cut {
			t.Errorf("%s: %d CS cut short by a crash, want %d", run.name, cut, run.cut)
		}
	}
}

// fingerprint renders a finished run's Result and records as one line.
func fingerprint(c *sim.Cluster) string {
	r := c.Summarize()
	var b strings.Builder
	fmt.Fprintf(&b, "%s n=%d completed=%d total=%d", r.Algorithm, r.N, r.Completed, r.TotalMessages)
	kinds := make([]string, 0, len(r.ByKind))
	for k := range r.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, " %s=%d", k, r.ByKind[k])
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"msgs/cs", r.MessagesPerCS},
		{"sync", r.SyncDelay},
		{"resp", r.ResponseTime},
		{"resp99", r.ResponseP99},
		{"wait", r.WaitingTime},
		{"wait99", r.WaitingP99},
		{"tput", r.Throughput},
	} {
		fmt.Fprintf(&b, " %s=%s", f.name, strconv.FormatFloat(f.v, 'g', -1, 64))
	}
	fmt.Fprintf(&b, " samples=%d", r.SyncDelaySamples)
	recs := c.Records()
	h := fnv.New64a()
	var buf []byte
	for _, rec := range recs {
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(rec.Site))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.Requested))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.Entered))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.Entered+c.CSTime()))
		h.Write(buf)
	}
	fmt.Fprintf(&b, " records=%d/%016x", len(recs), h.Sum64())
	return b.String()
}
