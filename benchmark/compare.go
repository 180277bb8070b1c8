package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is compare mode's judgement of one (workload, metric) row.
type verdict string

const (
	// same: b is no worse than a by more than the bound.
	same verdict = "ok"
	// regressed: b is worse than a by more than the bound.
	regressed verdict = "REGRESSION"
	// unresolved: a side's own repetitions disagree by more than the bound,
	// so the row can show neither a regression nor its absence.
	unresolved verdict = "unresolved"
	// notJudged: the metric has no bound (a timing); the row is printed for
	// the reader and decides nothing.
	notJudged verdict = "not judged"
)

// worsening is how much worse b is than a as a share of a: positive is
// worse, whichever direction is better for the metric.
func worsening(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / a
	if def.Better == higher {
		d = -d
	}
	return d
}

// judge compares one metric's two summaries against its bound.
func judge(def metricDef, a, b summary) (verdict, float64) {
	worse := worsening(def, a.Median, b.Median)
	switch {
	case def.Bound == 0:
		return notJudged, worse
	case a.spread() > def.Bound || b.spread() > def.Bound:
		return unresolved, worse
	case worse > def.Bound:
		return regressed, worse
	}
	return same, worse
}

func readResult(path string) (result, error) {
	var r result
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultSchema {
		return r, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultSchema)
	}
	return r, nil
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files, then the timings for the reader, and reports whether b
// regressed: a metric worse than its bound on resolved rows, or a higher
// fail_ratio.
func compareFiles(out io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		return false, fmt.Errorf("the two results were not measured alike: seed %d for %d s against seed %d for %d s", a.Seed, a.Seconds, b.Seed, b.Seconds)
	}
	return compareResults(out, a, b), nil
}

func compareResults(out io.Writer, a, b result) bool {
	fmt.Fprintf(out, "a: commit %s seed %d, %s\nb: commit %s seed %d, %s\n",
		a.Host.GitCommit, a.Seed, a.Started, b.Host.GitCommit, b.Seed, b.Started)
	if a.Host.Noisy || b.Host.Noisy {
		fmt.Fprintln(out, "NOISY: a side was measured on a loaded machine")
	}
	fmt.Fprintf(out, "%-14s %-16s %14s %8s %14s %8s %9s %7s  %s\n",
		"workload", "metric", "a median", "spread", "b median", "spread", "worse by", "bound", "verdict")
	bad := false
	byName := map[string]workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(out, "%-14s missing from b\n", wa.Name)
			bad = true
			continue
		}
		for _, def := range append(append([]metricDef{}, endToEnd...), timings...) {
			sa, okA := wa.metric(def.Name)
			sb, okB := wb.metric(def.Name)
			if !okA || !okB {
				continue
			}
			v, worse := judge(def, sa, sb)
			bad = bad || v == regressed
			bound := "-"
			if def.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*def.Bound)
			}
			fmt.Fprintf(out, "%-14s %-16s %14.4f %7.1f%% %14.4f %7.1f%% %+8.1f%% %7s  %s\n",
				wa.Name, def.Name, sa.Median, 100*sa.spread(), sb.Median, 100*sb.spread(), 100*worse, bound, v)
		}
		v := same
		if wb.FailRatio > wa.FailRatio {
			v, bad = regressed, true
		}
		fmt.Fprintf(out, "%-14s %-16s %14g %8s %14g %8s %9s %7s  %s\n",
			wa.Name, "fail_ratio", wa.FailRatio, "", wb.FailRatio, "", "", "0", v)
	}
	return bad
}
