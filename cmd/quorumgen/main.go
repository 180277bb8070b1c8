// Command quorumgen prints the quorum assignment of a coterie construction,
// optionally after excluding failed sites, together with size and validity
// diagnostics. With a reconfiguration target (-to-n, optionally -to-q) it
// instead plans the joint-quorum handover between the two configurations
// (internal/membership) and prints the paired old/new/joint req_sets —
// what every site runs during the switch.
//
// Usage:
//
//	quorumgen -q tree -n 15
//	quorumgen -q tree -n 15 -down 0,3 -site 7
//	quorumgen -q majority -n 5 -to-n 7            # handover plan, same construction
//	quorumgen -q grid -n 9 -to-n 7 -to-q majority # handover plan across constructions
//	quorumgen -q majority -n 5 -to-n 7 -down 2    # joint req_sets avoiding a crash
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dqmx/internal/coterie"
	"dqmx/internal/harness"
	"dqmx/internal/membership"
	"dqmx/internal/timestamp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quorumgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name   = flag.String("q", "grid", "construction: "+strings.Join(harness.QuorumNames(), ", "))
		n      = flag.Int("n", 9, "number of sites")
		downs  = flag.String("down", "", "comma-separated failed sites")
		site   = flag.Int("site", -1, "only print the quorum of this site")
		checks = flag.Bool("check", true, "validate coterie properties")
		toN    = flag.Int("to-n", 0, "plan a handover to a configuration of this size")
		toQ    = flag.String("to-q", "", "target construction of the handover (default: same as -q)")
		epoch  = flag.Uint64("epoch", 0, "current epoch of the handover plan")
	)
	flag.Parse()

	cons, err := harness.NewConstruction(*name)
	if err != nil {
		return err
	}
	down := map[timestamp.SiteID]bool{}
	if *downs != "" {
		for _, part := range strings.Split(*downs, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad -down entry %q: %w", part, err)
			}
			down[timestamp.SiteID(id)] = true
		}
	}

	if *toN > 0 {
		return planPair(cons, *n, *toQ, *toN, *epoch, down)
	}

	if *site >= 0 {
		q, err := cons.QuorumAvoiding(*n, timestamp.SiteID(*site), down)
		if err != nil {
			return fmt.Errorf("site %d: %w", *site, err)
		}
		fmt.Printf("%s n=%d site=%d quorum=%v (size %d)\n", cons.Name(), *n, *site, q, len(q))
		return nil
	}

	if len(down) > 0 {
		tab := harness.NewTable("site", "quorum (avoiding failures)", "size")
		for i := 0; i < *n; i++ {
			if down[timestamp.SiteID(i)] {
				tab.AddRow(i, "(failed)", "-")
				continue
			}
			q, err := cons.QuorumAvoiding(*n, timestamp.SiteID(i), down)
			if err != nil {
				tab.AddRow(i, "UNAVAILABLE", "-")
				continue
			}
			tab.AddRow(i, q.String(), len(q))
		}
		return tab.Render(os.Stdout)
	}

	assign, err := cons.Assign(*n)
	if err != nil {
		return err
	}
	if *checks {
		if err := assign.Validate(); err != nil {
			return fmt.Errorf("coterie invalid: %w", err)
		}
		fmt.Printf("# intersection property: OK; avg K = %.2f, max K = %d\n",
			assign.AvgQuorumSize(), assign.MaxQuorumSize())
	}
	tab := harness.NewTable("site", "quorum", "size")
	for i := 0; i < *n; i++ {
		q := assign.Quorum(timestamp.SiteID(i))
		tab.AddRow(i, q.String(), len(q))
	}
	return tab.Render(os.Stdout)
}

// planPair plans the joint-quorum handover from (cons, n) at the given epoch
// to (toQ, toN) at epoch+1 and prints the paired configurations: each site's
// old, new, and joint req_set over the joint roster. With failed sites it
// prints the §6-rebuilt joint req_sets instead (JointAvoiding), which still
// embed a live quorum of each coterie.
func planPair(cons coterie.Construction, n int, toQ string, toN int, epoch uint64, down map[timestamp.SiteID]bool) error {
	newCons := cons
	if toQ != "" {
		var err error
		newCons, err = harness.NewConstruction(toQ)
		if err != nil {
			return err
		}
	}
	old, err := membership.NewConfig(membership.Epoch(epoch), cons, n)
	if err != nil {
		return err
	}
	next, err := membership.NewConfig(membership.Epoch(epoch)+1, newCons, toN)
	if err != nil {
		return err
	}
	h, err := membership.PlanHandover(old, next)
	if err != nil {
		return err
	}
	if err := h.Validate(); err != nil {
		return fmt.Errorf("handover invalid: %w", err)
	}
	fmt.Printf("# handover %s(%d)@%d -> %s(%d)@%d over %d joint sites: intersection properties OK\n",
		cons.Name(), n, epoch, newCons.Name(), toN, epoch+1, h.JointN())

	if len(down) > 0 {
		tab := harness.NewTable("site", "joint req_set (avoiding failures)", "size")
		for i := 0; i < h.JointN(); i++ {
			if down[timestamp.SiteID(i)] {
				tab.AddRow(i, "(failed)", "-")
				continue
			}
			q, err := h.JointAvoiding(timestamp.SiteID(i), down)
			if err != nil {
				tab.AddRow(i, "UNAVAILABLE", "-")
				continue
			}
			tab.AddRow(i, q.String(), len(q))
		}
		return tab.Render(os.Stdout)
	}

	tab := harness.NewTable("site", "old quorum", "new quorum", "joint req_set", "joint size")
	for i := 0; i < h.JointN(); i++ {
		id := timestamp.SiteID(i)
		oldQ, newQ := "-", "-"
		if i < n {
			oldQ = old.Coterie.Quorum(id).String()
		}
		if i < toN {
			newQ = next.Coterie.Quorum(id).String()
		}
		jq := h.JointQuorum(id)
		tab.AddRow(i, oldQ, newQ, jq.String(), len(jq))
	}
	return tab.Render(os.Stdout)
}
