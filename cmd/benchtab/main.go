// Command benchtab regenerates every table of the paper's evaluation (the
// experiments in DESIGN.md, listed in internal/harness's Evaluation) and
// prints them as text tables; `make tables` writes them to evaluation.txt.
//
// Usage:
//
//	benchtab [-seed N] [-n N] [-trials N] [-only e1,e4,...]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dqmx/internal/harness"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seed   = flag.Int64("seed", 1, "simulation seed")
		n      = flag.Int("n", 25, "system size for the per-size tables")
		trials = flag.Int("trials", 20000, "Monte Carlo trials for availability")
		only   = flag.String("only", "", "comma-separated experiment ids ("+
			strings.Join(harness.EvaluationIDs(), ", ")+"); empty = all")
	)
	flag.Parse()

	sel, err := harness.SelectEvaluation(*only)
	if err != nil {
		return err
	}
	all := harness.Evaluation()
	last := all[len(all)-1].ID
	p := harness.Params{Seed: *seed, N: *n, Trials: *trials}
	for _, e := range sel {
		tab, err := e.Table(p)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := tab.Render(os.Stdout); err != nil {
			return err
		}
		// Tables are set apart by a blank line; evaluation.txt ends at the
		// last table's last row.
		if e.ID != last {
			fmt.Println()
		}
	}
	return nil
}
