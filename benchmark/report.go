package main

import (
	"encoding/json"
	"fmt"
	"io"
)

func printHost(h host) {
	fmt.Printf("host: nproc %d, GOMAXPROCS %d, %s, %s, commit %s, load average %.2f\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.GitCommit, h.LoadAvg1)
	if h.Noisy {
		fmt.Println("NOISY: the 1-minute load average at start was above 1.0; something else is using this machine")
	}
}

// printWorkload prints every metric a workload measured by name, with its
// unit, its min–max spread over repetitions and its repetition count.
func printWorkload(r workloadResult) {
	fmt.Printf("\n== %s ==\n%s\n", r.Name, r.Why)
	printMetrics("end-to-end (obs off)", endToEnd, r.EndToEnd)
	printMetrics("not judged: timings (obs off), then the per-layer ledger (traced pass and probes)", contractPerLayer(), r.PerLayer)
	if k, ok := r.PerLayer["coterie.quorum_size"]; ok && k.Median > 1 {
		fmt.Printf("  msgs/CS band for site 0's K=%.0f: 3(K-1)..6(K-1) = %.0f..%.0f\n", k.Median, 3*(k.Median-1), 6*(k.Median-1))
	}
	if len(r.Samples) > 0 {
		fmt.Printf("  samples: %v; achieved warm-up %.3v s, measure %.3v s; peak RSS read after %v CS\n", r.Samples, r.WarmupS, r.MeasureS, r.RSSAtCS)
	}
	fmt.Printf("  fail_ratio %g (%d failed of %d attempted)\n", r.FailRatio, r.Failed, r.Attempted)
	for _, f := range r.Flags {
		fmt.Println("  FLAG:", f)
	}
	for _, f := range r.Faults {
		fmt.Println("  FAULT:", f)
	}
}

func printMetrics(title string, defs []metricDef, vals map[string]summary) {
	if len(vals) == 0 {
		return
	}
	if title != "" {
		fmt.Printf("  %s\n", title)
	}
	for _, d := range defs {
		s, ok := vals[d.Name]
		if !ok {
			continue
		}
		if s.N > 1 {
			fmt.Printf("    %-32s %14.4f %-5s  [%.4f .. %.4f, quartiles %.1f%% apart, n=%d]\n", d.Name, s.Median, d.Unit, s.Min, s.Max, 100*s.spread(), s.N)
		} else {
			fmt.Printf("    %-32s %14.4f %s\n", d.Name, s.Median, d.Unit)
		}
	}
}

// contractPerLayer is BENCHMARK.json's per_layer list: the exact counts,
// which its format cannot hold end to end, then the ledger.
func contractPerLayer() []metricDef {
	out := append([]metricDef{}, counted...)
	for i := range out {
		out[i].Bound = 0
	}
	return append(out, perLayer...)
}

// writeContractLine writes the one JSON object the driver reads: every
// metric of defs by name, with its unit. A per-layer metric that is not
// measured on the workload reads 0.
func writeContractLine(w io.Writer, r workloadResult, defs []metricDef, vals map[string]summary) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.Name] = value{Value: vals[d.Name].Median, Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
