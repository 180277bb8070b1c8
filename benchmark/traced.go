package main

import (
	"fmt"
	"time"
)

const (
	// unaccountedLimit is the share of a cycle or an acquire the layers may
	// fail to explain before the result flags it: above it, the harness or
	// a layer nobody measures is hiding time.
	unaccountedLimit = 10.0
)

// fromUntraced are the entries taken from the untraced repetition, whose
// window is the one a user of the system sees: the timings and the
// whole-process counters.
var fromUntraced = func() map[string]bool {
	m := map[string]bool{
		"proc.allocs_per_op": true, "proc.alloc_bytes_per_op": true, "proc.gc_pause_us_per_op": true,
		"proc.ctx_switches_per_op": true, "proc.goroutines": true, "loader.cycle_unaccounted_pct": true,
	}
	for _, d := range timings {
		m[d.Name] = true
	}
	return m
}()

// runTraced produces a workload's per-layer ledger: two repetitions of the
// same shape, one untraced and one traced (the benchmark's own TraceSink
// plus the metrics collectors, installed through the public options) — the
// difference between the two is the tracing overhead — and the probes of the
// layers on the workload's path. A sim workload has no live events to trace;
// its ledger is the simulator's own counters.
func runTraced(w workload, seed int64, seconds int) (workloadResult, error) {
	res := workloadResult{Name: w.name, Why: w.why, PerLayer: map[string]summary{}}
	window := time.Duration(seconds) * time.Second / liveReps
	if window > tracedWindow {
		window = tracedWindow
	}
	untraced, err := spawn(w, seed, warmup, window, false)
	if err != nil {
		return res, err
	}
	res.absorb(untraced)
	traced := untraced
	if w.live {
		if traced, err = spawn(w, seed, warmup, window, true); err != nil {
			return res, err
		}
		res.absorb(traced)
		checkLiveTraffic(&res, w, traced.Metrics)
	}
	for _, def := range contractPerLayer() {
		from := traced
		if fromUntraced[def.Name] {
			from = untraced
		}
		if v, ok := from.Metrics[def.Name]; ok {
			res.PerLayer[def.Name] = summarize([]float64{v})
		}
	}
	derived, err := runProbes(w)
	if err != nil {
		return res, err
	}
	if w.live {
		k, _, err := quorumSize(w.spec)
		if err != nil {
			return res, err
		}
		derived["coterie.quorum_size"] = float64(k)
		derived["obs.overhead_pct"] = 100 * (1 - traced.Metrics["ops_per_s"]/untraced.Metrics["ops_per_s"])
		// One hop is half a transport round trip: the live T. The paper
		// predicts 1 hop per hand-off (Maekawa: 2) and 2 per uncontended
		// acquire.
		rtt := derived["transport.inproc_rtt_p50_us"]
		if w.tcp {
			rtt = derived["transport.tcp_rtt_p50_us"]
		}
		if w.uncontended {
			derived["transport.hops_per_acquire"] = untraced.Metrics["acquire_p50_us"] / (rtt / 2)
		} else {
			derived["transport.hops_per_handoff"] = untraced.Metrics["handoff_p50_us"] / (rtt / 2)
		}
	}
	for name, v := range derived {
		res.PerLayer[name] = summarize([]float64{v})
	}
	for _, name := range []string{"loader.cycle_unaccounted_pct", "loader.acquire_unaccounted_pct"} {
		if v := res.PerLayer[name].Median; v > unaccountedLimit {
			res.Flags = append(res.Flags, fmt.Sprintf("%s is %.1f%%, above %.0f%%: the layers do not account for the whole", name, v, unaccountedLimit))
		}
	}
	res.finish()
	return res, nil
}

// checkLiveTraffic holds one traced repetition's traffic to what the
// protocol promises: the total inside 3(K−1)..6(K−1), and under a load with
// never two requests outstanding exactly K−1 requests and K−1 releases per
// CS. (The total is not exactly 3(K−1) there: Release returns once the
// release messages are handed to the writers, so the next site's requests
// can overtake them and draw a few transfers and fails.)
func checkLiveTraffic(res *workloadResult, w workload, m map[string]float64) {
	k, uniform, err := quorumSize(w.spec)
	if err != nil || !uniform {
		return
	}
	lo, hi := float64(3*(k-1)), float64(6*(k-1))
	if total := m["core.msgs_per_cs"]; total < lo || total > hi {
		res.fault("a traced run sent %.4f messages per CS, outside 3(K-1)..6(K-1) = %.0f..%.0f", total, lo, hi)
	}
	if !w.uncontended {
		return
	}
	for _, kind := range []string{"core.request_per_cs", "core.release_per_cs"} {
		if m[kind] != float64(k-1) {
			res.fault("a traced uncontended run sent %s = %.4f, not K-1 = %d", kind, m[kind], k-1)
		}
	}
}
