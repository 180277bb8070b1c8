// Command benchmark is the repository's yardstick: six named workloads over
// the system's exported entry points, driven by one seeded loader, reporting
// end-to-end metrics measured with observability off and a per-layer ledger
// from a separate traced pass. See README.md beside this file.
//
//	go run ./benchmark                                           every workload, both passes; writes a result file
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1  one workload, one pass; last line is JSON
//	go run ./benchmark -compare a.json b.json                    two result files, row by row
//
// run.sh does the same from a binary built inside the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print its metrics as one JSON line (default: run all six and write -out)")
		seed    = flag.Int64("seed", 1, "workload seed; repetitions use seed, seed+1, ...")
		seconds = flag.Int("seconds", 18, "measure time per workload, shared by its repetitions")
		trace   = flag.Int("trace", 0, "with -workload: 0 ends with the judged metrics (obs off), 1 with the unjudged ones (timings, traced pass and probes)")
		out     = flag.String("out", ".bench_build/result.json", "result file of a full run")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")

		child   = flag.Bool("child", false, "internal: run one repetition and print it as JSON")
		spawned = flag.Int64("spawned", 0, "internal: parent's clock at spawn, Unix ns")
		warm    = flag.Duration("warmup", 0, "internal: warm-up of a child repetition")
		measure = flag.Duration("measure", 0, "internal: measure window of a child repetition")
	)
	flag.Parse()
	procs := pinProcs()

	switch {
	case *child:
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		rep, err := runRepetition(w, *seed, *spawned, *warm, *measure, *trace == 1)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fatal(err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q; the workloads are %v", *name, workloadNames()))
		}
		if *seconds < 1 {
			fatal(fmt.Errorf("-seconds must be at least 1"))
		}
		h := readHost(procs)
		printHost(h)
		var (
			res  workloadResult
			defs []metricDef
			vals map[string]summary
			err  error
		)
		if *trace == 1 {
			res, err = runTraced(w, *seed, *seconds)
			defs, vals = contractPerLayer(), res.PerLayer
		} else {
			res, err = runEndToEnd(w, *seed, *seconds)
			defs, vals = measured, res.EndToEnd
		}
		if err != nil {
			fatal(err)
		}
		printWorkload(res)
		if err := writeContractLine(os.Stdout, res, defs, vals); err != nil {
			fatal(err)
		}
		if !res.Correct {
			os.Exit(1)
		}
	default:
		if *seconds < 1 {
			fatal(fmt.Errorf("-seconds must be at least 1"))
		}
		ok, err := runAll(*seed, *seconds, *out, procs)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// result is the result file: the honesty record, then every workload.
type result struct {
	Schema    string           `json:"schema"`
	Host      host             `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Started   string           `json:"started"`
	Workloads []workloadResult `json:"workloads"`
	Notes     []string         `json:"notes"`
}

const resultSchema = "dqmx/benchmark/v1"

// interactionNotes are written into every result: how the metrics move
// together, so a reader does not count one change twice.
var interactionNotes = []string{
	"Under saturation acquire latency is about (requesters-1) x cycle, so acquire_p50_us and ops_per_s move together on *-heavy and are independent on tcp-light.",
	"An entry waits for the slowest of K-1 parallel replies, so the tails of transport.tcp_rtt show in the tcp-light median as K grows.",
	"Freeing CPU through fewer messages or allocations raises ops_per_s on a 2-core box even when no latency on the blocking path changed.",
	"A metric is absent from a workload it is not measured on: latencies from the sim workloads, hand-off from tcp-light, the exact counts from the live workloads (their traffic is core.msgs_per_cs in the traced pass).",
}

// runAll runs every workload, both passes, prints every metric and writes
// the result file. It reports whether every workload was correct.
func runAll(seed int64, seconds int, out string, procs int) (bool, error) {
	r := result{
		Schema: resultSchema, Host: readHost(procs), Seed: seed, Seconds: seconds,
		Started: time.Now().UTC().Format(time.RFC3339), Notes: interactionNotes,
	}
	printHost(r.Host)
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return false, fmt.Errorf("result directory: %w", err)
	}
	ok := true
	for _, w := range workloads {
		res, err := runEndToEnd(w, seed, seconds)
		if err != nil {
			return false, err
		}
		traced, err := runTraced(w, seed, seconds)
		if err != nil {
			return false, err
		}
		for name, s := range traced.PerLayer {
			// The timings keep their medians over the longer windows, and
			// the exact counts stay end to end.
			if _, ok := res.metric(name); !ok {
				res.PerLayer[name] = s
			}
		}
		res.Flags = traced.Flags
		res.Faults = append(res.Faults, traced.Faults...)
		res.Attempted += traced.Attempted
		res.Failed += traced.Failed
		res.finish()
		printWorkload(res)
		ok = ok && res.Correct
		r.Workloads = append(r.Workloads, res)
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return false, fmt.Errorf("write result: %w", err)
	}
	fmt.Printf("\nresult written to %s\n", out)
	return ok, nil
}
