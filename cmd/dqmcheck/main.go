// Command dqmcheck runs the exhaustive small-N model checker from the
// command line: it enumerates every schedule of message delivery, request
// issue, CS exit, crash, and crash-loss for one protocol configuration and
// asserts the conformance invariants on every transition and terminal state
// (mutual exclusion, settled-wave timestamp order, terminal deadlock
// freedom, and — fault-free — the paper's 3(K−1)..6(K−1) message envelope).
//
// Usage:
//
//	dqmcheck                                  # majority-3, fault-free
//	dqmcheck -n 4 -quorum majority            # bigger fault-free space
//	dqmcheck -crashes 1                       # every §6 recovery schedule
//	dqmcheck -per-site 2 -max-states 50e6     # soak: two CS rounds each
//	dqmcheck -requesters 0,3 -n 5             # restrict who requests
//	dqmcheck -dfs -max-depth 40               # bounded depth-first probe
//
// A violation prints the invariant, the minimal replayable choice sequence
// that reaches it, and a per-site state dump, then exits nonzero. The -bound
// flag folds the message counters into the canonical state, which grows the
// space; it is on by default only for the fault-free run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dqmx/internal/chaos"
	"dqmx/internal/core"
	"dqmx/internal/coterie"
	"dqmx/internal/modelcheck"
	"dqmx/internal/mutex"
)

func main() {
	var (
		n         = flag.Int("n", 3, "number of sites")
		quorum    = flag.String("quorum", "majority", "quorum construction (see -list)")
		list      = flag.Bool("list", false, "list quorum constructions and exit")
		perSite   = flag.Int("per-site", 1, "CS executions per requester")
		reqsFlag  = flag.String("requesters", "", "comma-separated requester sites (default: all)")
		crashes   = flag.Int("crashes", 0, "crash-choice budget per run")
		crashSite = flag.String("crash-sites", "", "comma-separated crash victims (default: any)")
		maxStates = flag.Float64("max-states", 10e6, "state budget (0 = unlimited)")
		maxDepth  = flag.Int("max-depth", 0, "choice-sequence depth cap (0 = unbounded)")
		dfs       = flag.Bool("dfs", false, "depth-first search order (default breadth-first)")
		bound     = flag.Bool("bound", true, "assert the per-CS message envelope on fault-free runs")
	)
	flag.Parse()

	if *list {
		for _, c := range coterie.Constructions() {
			fmt.Println(c.Name())
		}
		return
	}
	cons := construction(*quorum)
	if cons == nil {
		fmt.Fprintf(os.Stderr, "dqmcheck: unknown quorum construction %q (try -list)\n", *quorum)
		os.Exit(2)
	}

	cfg := modelcheck.Config{
		Algorithm:  core.Algorithm{Construction: cons},
		N:          *n,
		PerSite:    *perSite,
		Requesters: sites(*reqsFlag),
		Crashes:    *crashes,
		CrashSites: sites(*crashSite),
		MaxStates:  int(*maxStates),
		MaxDepth:   *maxDepth,
		DFS:        *dfs,
	}
	if *bound {
		assign, err := cons.Assign(*n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dqmcheck: %v\n", err)
			os.Exit(2)
		}
		lo, hi := chaos.MessageBounds(assign)
		cfg.Bound = &modelcheck.Bound{Lo: lo, Hi: hi}
	}

	requesters := "all"
	if cfg.Requesters != nil {
		requesters = *reqsFlag
	}
	fmt.Printf("dqmcheck: %s n=%d per-site=%d requesters=%s crashes=%d bound=%v\n",
		cons.Name(), *n, *perSite, requesters, *crashes, *bound)

	start := time.Now()
	res, err := modelcheck.Run(cfg)
	elapsed := time.Since(start).Round(time.Millisecond)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dqmcheck: %v after %d states in %v\n", err, res.States, elapsed)
		os.Exit(1)
	}
	if res.Violation != nil {
		fmt.Fprintf(os.Stderr, "dqmcheck: VIOLATION after %d states in %v\n%s", res.States, elapsed, res.Violation)
		os.Exit(1)
	}
	status := "complete"
	if !res.Complete {
		status = "truncated by -max-depth"
	}
	fmt.Printf("dqmcheck: %d distinct states, %d terminals, depth %d, %s — all invariants hold (%v)\n",
		res.States, res.Terminals, res.Depth, status, elapsed)
}

// construction resolves a construction by its registered name, with the
// bare aliases used across the repo's CLIs.
func construction(name string) coterie.Construction {
	switch name {
	case "grid":
		return coterie.Grid{}
	case "tree":
		return coterie.Tree{}
	}
	for _, c := range coterie.Constructions() {
		if c.Name() == name {
			return c
		}
	}
	return nil
}

// sites parses a comma-separated site list, nil when empty.
func sites(s string) []mutex.SiteID {
	if s == "" {
		return nil
	}
	var out []mutex.SiteID
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintf(os.Stderr, "dqmcheck: bad site list %q: %v\n", s, err)
			os.Exit(2)
		}
		out = append(out, mutex.SiteID(id))
	}
	return out
}
