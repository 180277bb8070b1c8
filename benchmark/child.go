package main

import (
	"fmt"
	"math"
	"time"

	"dqmx"
)

// repetition is what one child process measured: one fresh deployment (or
// one simulation), one set-up, one measure window. The parent takes medians
// over repetitions.
type repetition struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Traced    bool    `json:"traced"`
	Attempted int64   `json:"attempted"` // operations attempted, warm-up included
	Failed    int64   `json:"failed"`    // errors, timeouts and violations
	Ops       int64   `json:"ops"`       // CS completed in the measure window
	WarmupS   float64 `json:"warmup_s"`  // achieved
	MeasureS  float64 `json:"measure_s"` // achieved
	// RSSAtCS is how many completed CS peak_rss_mb covers: rssAtCS on a live
	// workload, fewer only when a (short or slow) run ended before that.
	RSSAtCS int64 `json:"rss_at_cs"`
	// Metrics holds end-to-end and per-layer values by name.
	Metrics map[string]float64 `json:"metrics"`
	// Samples counts the observations behind the percentile metrics.
	Samples map[string]int `json:"samples,omitempty"`
	// Faults lists every correctness violation in words.
	Faults []string `json:"faults,omitempty"`
}

func (r *repetition) fault(format string, args ...any) {
	r.Faults = append(r.Faults, fmt.Sprintf(format, args...))
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// runRepetition is the body of a child process. spawned is the parent's
// wall clock (Unix ns) when it started this process, so set-up covers
// process start. A sim workload runs its fixed operation count and ignores
// the two durations.
func runRepetition(w workload, seed, spawned int64, warmup, measure time.Duration, traced bool) (repetition, error) {
	rep := repetition{
		Workload: w.name, Seed: seed, Traced: traced,
		Metrics: map[string]float64{}, Samples: map[string]int{},
	}
	var err error
	if w.live {
		err = runLive(&rep, w, seed, spawned, warmup, measure, traced)
	} else {
		err = runSimulated(&rep, w, seed, spawned)
	}
	if err != nil {
		return rep, err
	}
	// A live run read its peak RSS as its rssAtCS-th CS completed; a sim run,
	// and a live run that ended before that, read it here.
	if _, ok := rep.Metrics["peak_rss_mb"]; !ok {
		rep.Metrics["peak_rss_mb"], err = peakRSSMB()
	}
	return rep, err
}

func runLive(rep *repetition, w workload, seed, spawned int64, warmup, measure time.Duration, traced bool) error {
	var (
		observe dqmx.ObserveConfig // zero on end-to-end runs: no sink, no collector
		tr      *tracer
	)
	if traced {
		tr = newTracer()
		observe = dqmx.ObserveConfig{Observer: tr.observe, Metrics: true}
	}
	d, err := w.deploy(seed, observe)
	if err != nil {
		return fmt.Errorf("deploy %s: %w", w.name, err)
	}
	defer d.close()
	order := seededOrder(len(d.locks), seed)
	l := newLoader(len(d.locks))
	defer l.shutdown()

	// Set-up ends with the first completed CS, taken alone so that every
	// workload pays for the same thing: one uncontended acquire.
	l.cycle(d.locks[order[0]], order[0])
	rep.Metrics["setup_s"] = float64(time.Now().UnixNano()-spawned) / 1e9
	l.reserve()
	var before dqmx.MetricsSnapshot
	if traced {
		tr.start()
		before = d.snapshot()
	}
	win := l.run(d, w.shape, order, warmup, measure)
	rep.WarmupS, rep.MeasureS = win.warmup.Seconds(), win.measure.Seconds()
	if l.rssErr != nil {
		return l.rssErr
	}
	if rep.RSSAtCS = l.completed.Load(); l.rssMB > 0 {
		rep.Metrics["peak_rss_mb"], rep.RSSAtCS = l.rssMB, rssAtCS
	}
	rep.Ops = l.inWindow.Load()
	samples := l.samples[:l.stored]
	liveMetrics(rep, w, samples, win)
	if traced {
		traceMetrics(rep, w, d, tr, samples, d.snapshot(), before)
	}
	rep.Attempted = l.attempted.Load()
	rep.Failed = l.failures.Load() + l.violations.Load()
	if v := l.violations.Load(); v > 0 {
		rep.fault("mutual exclusion: the inside gauge read other than 1 on %d entries", v)
	}
	if f := l.failures.Load(); f > 0 {
		rep.fault("%d Acquire/Release calls failed or timed out", f)
	}
	if done := l.completed.Load(); l.counter != done {
		rep.fault("the CS counter reads %d after %d completed CS", l.counter, done)
		rep.Failed++
	}
	return nil
}

// liveMetrics turns the loader's samples and the window's process counters
// into the end-to-end metrics and the proc.* ledger.
func liveMetrics(rep *repetition, w workload, samples []csSample, win window) {
	ops := float64(rep.Ops)
	if ops == 0 {
		rep.fault("no CS completed in the measure window")
		return
	}
	m := rep.Metrics
	m["ops_per_s"] = ops / win.measure.Seconds()
	m["cpu_us_per_op"] = us(int64(win.cpu)) / ops

	acq := make([]int64, len(samples))
	for i, s := range samples {
		acq[i] = s.acqEnd - s.acqStart
	}
	p := percentiles(acq, 50, 99)
	m["acquire_p50_us"], m["acquire_p99_us"] = us(p[0]), us(p[1])
	rep.Samples["acquire"] = len(acq)

	procMetrics(m, win.mem, win.ctxSwitches, ops)
	if w.uncontended {
		return
	}
	ho := handoffs(samples)
	p = percentiles(ho, 50, 99)
	m["handoff_p50_us"], m["handoff_p99_us"] = us(p[0]), us(p[1])
	rep.Samples["handoff"] = len(ho)
	if len(ho) == 0 {
		rep.fault("no hand-off was observed")
	}
	// Under saturation a cycle is one hand-off plus the (empty) CS, so the
	// mean hand-off should account for 1/throughput.
	cycle := 1e6 / m["ops_per_s"]
	m["loader.cycle_unaccounted_pct"] = 100 * math.Abs(cycle-us(int64(mean(ho)))) / cycle
}

// procMetrics records the whole process's allocation, GC and scheduling
// activity over a measured interval, per operation.
func procMetrics(m map[string]float64, mem memDelta, ctxSwitches int64, ops float64) {
	m["proc.allocs_per_op"] = float64(mem.mallocs) / ops
	m["proc.alloc_bytes_per_op"] = float64(mem.allocBytes) / ops
	m["proc.gc_pause_us_per_op"] = us(int64(mem.gcPause)) / ops
	m["proc.ctx_switches_per_op"] = float64(ctxSwitches) / ops
	m["proc.goroutines"] = float64(mem.goroutines)
}

// handoffs pairs consecutive critical sections (samples are in CS order) and
// returns, per pair, the time from the holder's Release call to the next
// holder's Acquire return. A pair counts only when the next holder was
// already waiting when the release began — the paper's synchronization delay
// on the loader's clock: an uncontended acquire yields no sample, and
// neither does a waiter that arrived after the release.
func handoffs(cs []csSample) []int64 {
	var out []int64
	for i := 1; i < len(cs); i++ {
		prev, next := cs[i-1], cs[i]
		if next.acqStart > prev.relStart {
			continue
		}
		if next.acqEnd < prev.relStart {
			continue // not consecutive holders: a sample was dropped between them
		}
		out = append(out, next.acqEnd-prev.relStart)
	}
	return out
}

// runSimulated runs a sim workload once, through its fixed operation count.
func runSimulated(rep *repetition, w workload, seed, spawned int64) error {
	out, err := runSim(w.spec, seed, func() {
		rep.Metrics["setup_s"] = float64(time.Now().UnixNano()-spawned) / 1e9
	})
	if err != nil {
		return fmt.Errorf("simulate %s: %w", w.name, err)
	}
	rep.Attempted = int64(out.completed)
	if out.err != nil {
		rep.fault("sim: %v", out.err)
		rep.Failed++
	}
	rep.Ops, rep.RSSAtCS = int64(out.completed), int64(out.completed)
	rep.MeasureS = out.wall.Seconds()
	m, ops := rep.Metrics, float64(out.completed)
	m["ops_per_s"] = ops / out.wall.Seconds()
	m["cpu_us_per_op"] = us(int64(out.cpu)) / ops
	m["msgs_per_cs"] = out.msgsPerCS
	if len(w.spec.crashes) == 0 {
		m["sync_delay_T"] = out.syncDelayT
	} else {
		m["recovery_gap_T"] = out.recoveryGapT
	}
	m["coterie.quorum_size"] = float64(out.quorumSize)
	kindMetrics(m, out.byKind, ops)
	procMetrics(m, out.mem, out.ctx, ops)
	m["sim.events_per_s"] = float64(out.events) / out.wall.Seconds()
	m["sim.ns_per_event"] = float64(out.wall.Nanoseconds()) / float64(out.events)
	m["sim.events_per_cs"] = float64(out.events) / ops
	return nil
}

// kindMetrics spreads per-kind message totals into the core.* ledger.
func kindMetrics(m map[string]float64, byKind map[string]uint64, cs float64) {
	var total uint64
	for _, kind := range []string{"request", "reply", "transfer", "release", "fail", "inquire", "yield"} {
		m["core."+kind+"_per_cs"] = float64(byKind[kind]) / cs
	}
	for _, n := range byKind {
		total += n
	}
	m["core.msgs_per_cs"] = float64(total) / cs
	if grants := byKind["reply"] + byKind["transfer"]; grants > 0 {
		m["core.transfer_share"] = float64(byKind["transfer"]) / float64(grants)
	}
}
