package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"syscall"
	"time"
)

const (
	// liveReps is how many fresh deployments share a live workload's measure
	// time; each reported value is the median across them.
	liveReps = 3
	// warmup precedes every live measure window.
	warmup = time.Second
	// minSimReps is the least a sim workload repeats its fixed operation
	// count; it goes on repeating until the measure time is spent.
	minSimReps = 3
	// tracedWindow caps the traced pass's window.
	tracedWindow = 4 * time.Second
	// childGrace is what a child may take beyond its warm-up and window
	// before the parent kills it.
	childGrace = 60 * time.Second
)

// workloadResult is one workload's section of the result file.
type workloadResult struct {
	Name      string  `json:"name"`
	Why       string  `json:"why"`
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	FailRatio float64 `json:"fail_ratio"`
	// EndToEnd are medians over the untraced repetitions, obs off. A metric
	// that is not measured on this workload is absent.
	EndToEnd map[string]summary `json:"end_to_end,omitempty"`
	// PerLayer are the metrics without a bound: the timings, medians over
	// the same untraced repetitions, and the ledger of the traced pass, from
	// the traced repetition, the untraced one beside it, and the probes.
	PerLayer map[string]summary `json:"per_layer,omitempty"`
	// Samples are the observations behind the percentile metrics, summed
	// over repetitions.
	Samples  map[string]int `json:"samples,omitempty"`
	WarmupS  []float64      `json:"warmup_s,omitempty"`  // achieved, per repetition
	MeasureS []float64      `json:"measure_s,omitempty"` // achieved, per repetition
	RSSAtCS  []int64        `json:"rss_at_cs,omitempty"` // completed CS peak_rss_mb covers, per repetition
	Faults   []string       `json:"faults,omitempty"`
	Flags    []string       `json:"flags,omitempty"` // reconciliation findings
}

// metric finds a value by name, judged or not.
func (r *workloadResult) metric(name string) (summary, bool) {
	if s, ok := r.EndToEnd[name]; ok {
		return s, true
	}
	s, ok := r.PerLayer[name]
	return s, ok
}

func (r *workloadResult) absorb(rep repetition) {
	r.Attempted += rep.Attempted
	r.Failed += rep.Failed
	r.Faults = append(r.Faults, rep.Faults...)
	for k, n := range rep.Samples {
		if r.Samples == nil {
			r.Samples = map[string]int{}
		}
		r.Samples[k] += n
	}
	if rep.MeasureS > 0 {
		r.WarmupS = append(r.WarmupS, rep.WarmupS)
		r.MeasureS = append(r.MeasureS, rep.MeasureS)
		r.RSSAtCS = append(r.RSSAtCS, rep.RSSAtCS)
	}
}

func (r *workloadResult) fault(format string, args ...any) {
	r.Faults = append(r.Faults, fmt.Sprintf(format, args...))
	r.Failed++
}

func (r *workloadResult) finish() {
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	r.FailRatio = float64(r.Failed) / float64(r.Attempted)
	r.Correct = r.Failed == 0 && len(r.Faults) == 0
}

// spawn runs one repetition in a child process: the command re-executes
// itself, so CPU, peak RSS and set-up time belong to that repetition alone.
func spawn(w workload, seed int64, warm, measure time.Duration, traced bool) (repetition, error) {
	var rep repetition
	self, err := os.Executable()
	if err != nil {
		return rep, err
	}
	// An interrupted or terminated parent takes its child with it: the
	// context kills the child and Run waits until it has ended.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, warm+measure+childGrace)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self,
		"-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-trace", trace,
		"-warmup", warm.String(), "-measure", measure.String(),
		"-spawned", strconv.FormatInt(time.Now().UnixNano(), 10))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return rep, fmt.Errorf("%s seed %d: child: %w", w.name, seed, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return rep, fmt.Errorf("%s seed %d: child output: %w", w.name, seed, err)
	}
	return rep, nil
}

// collect gathers one metric's values over repetitions.
func collect(reps []repetition, name string) []float64 {
	var out []float64
	for _, r := range reps {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// runEndToEnd measures a workload with observability off: fresh deployments
// (seeds seed, seed+1, …) sharing the measure time.
func runEndToEnd(w workload, seed int64, seconds int) (workloadResult, error) {
	res := workloadResult{Name: w.name, Why: w.why, EndToEnd: map[string]summary{}, PerLayer: map[string]summary{}}
	budget := time.Duration(seconds) * time.Second
	var reps []repetition
	if w.live {
		for i := 0; i < liveReps; i++ {
			rep, err := spawn(w, seed+int64(i), warmup, budget/liveReps, false)
			if err != nil {
				return res, err
			}
			reps = append(reps, rep)
		}
	} else {
		var spent time.Duration
		for i := 0; i < minSimReps || spent < budget; i++ {
			rep, err := spawn(w, seed+int64(i), 0, 0, false)
			if err != nil {
				return res, err
			}
			spent += time.Duration(rep.MeasureS * float64(time.Second))
			reps = append(reps, rep)
		}
	}
	for _, rep := range reps {
		res.absorb(rep)
	}
	record := func(defs []metricDef, into map[string]summary) {
		for _, def := range defs {
			if !def.appliesTo(w) {
				continue
			}
			s := summarize(collect(reps, def.Name))
			if s.N != len(reps) || s.Median == 0 {
				res.fault("metric %s was not measured", def.Name)
				continue
			}
			into[def.Name] = s
		}
	}
	record(endToEnd, res.EndToEnd)
	record(timings, res.PerLayer)
	if m, ok := res.EndToEnd["msgs_per_cs"]; ok {
		checkBand(&res, w, m.Median)
	}
	res.finish()
	return res, nil
}

// checkBand holds msgs/CS to the paper's 3(K−1)..6(K−1) envelope wherever
// every quorum has the same size K and no site crashes.
func checkBand(res *workloadResult, w workload, msgsPerCS float64) {
	if len(w.spec.crashes) > 0 {
		return
	}
	k, uniform, err := quorumSize(w.spec)
	if err != nil {
		res.fault("%v", err)
		return
	}
	if !uniform {
		return
	}
	if lo, hi := float64(3*(k-1)), float64(6*(k-1)); msgsPerCS < lo || msgsPerCS > hi {
		res.fault("msgs_per_cs %.3f lies outside 3(K-1)..6(K-1) = %.0f..%.0f for K=%d", msgsPerCS, lo, hi, k)
	}
}
