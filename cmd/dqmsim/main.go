// Command dqmsim runs one mutual exclusion simulation and prints its
// metrics in the paper's units.
//
// Usage:
//
//	dqmsim -alg delay-optimal -quorum tree -n 25 -load heavy -persite 10 \
//	       -delay exp -seed 7
//
// With -trace the full protocol event log (requests, every message send
// with its kind, CS entries/exits, failure handling) is dumped one line per
// event, '-' for stdout or a file path.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dqmx/internal/harness"
	"dqmx/internal/mutex"
	"dqmx/internal/obs"
	"dqmx/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dqmsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		algName    = flag.String("alg", "delay-optimal", "algorithm: "+strings.Join(harness.ProtocolNames(), ", "))
		quorumName = flag.String("quorum", "grid", "coterie for quorum algorithms: "+strings.Join(harness.QuorumNames(), ", "))
		n          = flag.Int("n", 25, "number of sites")
		loadName   = flag.String("load", "heavy", "workload: light, heavy, think")
		think      = flag.Int64("think", 10000, "mean think time for -load think")
		perSite    = flag.Int("persite", 10, "CS executions per site (or total for light load)")
		seed       = flag.Int64("seed", 1, "simulation seed")
		delayName  = flag.String("delay", "const", "delay distribution: const, uniform, exp")
		meanDelay  = flag.Int64("T", 1000, "mean message delay T")
		csTime     = flag.Int64("E", 10, "critical section execution time E")
		tracePath  = flag.String("trace", "", "dump the protocol event log: '-' for stdout, else a file path")
	)
	flag.Parse()

	cons, err := harness.NewConstruction(*quorumName)
	if err != nil {
		return err
	}
	alg, err := harness.NewAlgorithm(*algName, cons, false)
	if err != nil {
		return err
	}
	var delay sim.Delay
	switch *delayName {
	case "const":
		delay = sim.ConstantDelay{D: sim.Time(*meanDelay)}
	case "uniform":
		delay = sim.UniformDelay{Lo: sim.Time(*meanDelay / 2), Hi: sim.Time(3 * *meanDelay / 2)}
	case "exp":
		delay = sim.ExponentialDelay{MeanD: sim.Time(*meanDelay)}
	default:
		return fmt.Errorf("unknown delay distribution %q (valid: const, uniform, exp)", *delayName)
	}
	var load harness.LoadKind
	switch *loadName {
	case "light":
		load = harness.Light
	case "heavy":
		load = harness.Heavy
	case "think":
		load = harness.Think
	default:
		return fmt.Errorf("unknown load %q (valid: light, heavy, think)", *loadName)
	}

	var (
		observer obs.Sink
		flush    = func() error { return nil }
	)
	if *tracePath != "" {
		var w io.Writer = os.Stdout
		if *tracePath != "-" {
			f, err := os.Create(*tracePath)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		bw := bufio.NewWriter(w)
		flush = bw.Flush
		observer = func(e obs.Event) { fmt.Fprintln(bw, e) }
	}

	res, err := harness.Run(harness.Spec{
		N: *n, Algorithm: alg, Load: load, ThinkTime: sim.Time(*think),
		PerSite: *perSite, Seed: *seed, Delay: delay, CSTime: sim.Time(*csTime),
		Observer: observer,
	})
	if ferr := flush(); err == nil && ferr != nil {
		err = ferr
	}
	if err != nil {
		return err
	}

	fmt.Printf("algorithm        %s\n", res.Algorithm)
	fmt.Printf("sites            %d\n", res.N)
	fmt.Printf("CS executions    %d\n", res.Completed)
	fmt.Printf("messages total   %d\n", res.TotalMessages)
	fmt.Printf("messages per CS  %.2f\n", res.MessagesPerCS)
	fmt.Printf("sync delay       %.3f T (%d handovers)\n", res.SyncDelay, res.SyncDelaySamples)
	fmt.Printf("response time    %.2f T\n", res.ResponseTime)
	fmt.Printf("waiting time     %.2f T\n", res.WaitingTime)
	fmt.Printf("throughput       %.3f CS per T\n\n", res.Throughput)

	tab := harness.NewTable("message kind", "count")
	for _, kind := range mutex.Kinds() {
		if c := res.ByKind[kind]; c > 0 {
			tab.AddRow(kind, c)
		}
	}
	return tab.Render(os.Stdout)
}
