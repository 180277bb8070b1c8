package main

// metricDef declares one metric: BENCHMARK.json repeats these, and a test
// holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// on lists the workloads the metric is measured on; nil means all. A
	// metric is omitted from a workload it is not measured on.
	on []string
}

const (
	lower  = "lower"
	higher = "higher"
)

func (d metricDef) appliesTo(w workload) bool {
	if d.on == nil {
		return true
	}
	for _, name := range d.on {
		if name == w.name {
			return true
		}
	}
	return false
}

var (
	liveWorkloads      = []string{"inproc-heavy", "tcp-heavy", "tcp-light", "service-heavy"}
	contendedWorkloads = []string{"inproc-heavy", "tcp-heavy", "service-heavy"}
	simWorkloads       = []string{"sim-heavy", "sim-crash"}
)

// measured are the end-to-end metrics taken from outside the process, with
// observability off. The bound is the relative worsening that counts as a
// regression.
var measured = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.15},
}

// counted are the end-to-end metrics that exist only in virtual time: exact
// functions of the workload and the seed. BENCHMARK.json's format wants
// every end-to-end metric from every workload and never a 0, so it lists
// these three under per_layer; the result file and compare mode keep them
// end to end on the sim workloads, as here.
var counted = []metricDef{
	{Name: "msgs_per_cs", Unit: "count", Better: lower, Bound: 0.01, on: simWorkloads},
	{Name: "sync_delay_T", Unit: "T", Better: lower, Bound: 0.01, on: []string{"sim-heavy"}},
	{Name: "recovery_gap_T", Unit: "T", Better: lower, Bound: 0.01, on: []string{"sim-crash"}},
}

// endToEnd are the metrics a change is judged by. fail_ratio belongs with
// them: every workload's failed/attempted. It must be 0, so it has no
// relative bound and cannot be listed as a metric; compare mode judges it
// absolutely.
var endToEnd = append(append([]metricDef{}, measured...), counted...)

// timings are the six timings ISSUE 13 lists end to end, with bounds of 0.10
// (0.15 for the 99th percentiles). They are taken on the loader's clock with
// observability off, like the rest. On the shared 2-vCPU sandbox this
// benchmark was built on, the machine's own speed wanders by 10 to 30% from
// one half minute to the next, and ten runs of the same code disagree by
// more than those bounds however long the window (README, "Why the timings
// are not judged"). The issue's rule for a metric that does not repeat
// inside its bound is to demote it, not to widen the bound: so they are
// reported on every run and stored in every result, and never judged.
var timings = []metricDef{
	{Name: "ops_per_s", Unit: "CS/s", Better: higher},                           // CS in the window per wall second; simulated CS per wall second on sim-*
	{Name: "acquire_p50_us", Unit: "us", Better: lower, on: liveWorkloads},      // Lock.Acquire call → return
	{Name: "acquire_p99_us", Unit: "us", Better: lower, on: liveWorkloads},      // the same, 99th percentile
	{Name: "handoff_p50_us", Unit: "us", Better: lower, on: contendedWorkloads}, // Release call → a waiting requester's Acquire return
	{Name: "handoff_p99_us", Unit: "us", Better: lower, on: contendedWorkloads}, // the same, 99th percentile
	{Name: "cpu_us_per_op", Unit: "us", Better: lower},                          // process user+sys CPU over the window ÷ CS
}

// ledger are the single-layer metrics of the traced pass and the probes. A
// metric whose layer is not on a workload's path reads 0 there. Each entry
// is followed by the metric it should move, and where; the README tabulates
// the same predictions.
var ledger = []metricDef{
	// core: protocol traffic per CS and the protocol's own share of latency.
	{Name: "core.msgs_per_cs", Unit: "count", Better: lower},     // moves ops_per_s, cpu_us_per_op on *-heavy; msgs_per_cs on sim-*; stays 12 on tcp-light
	{Name: "core.request_per_cs", Unit: "count", Better: lower},  // moves as core.msgs_per_cs
	{Name: "core.reply_per_cs", Unit: "count", Better: lower},    // moves as core.msgs_per_cs
	{Name: "core.transfer_per_cs", Unit: "count", Better: lower}, // moves as core.msgs_per_cs
	{Name: "core.release_per_cs", Unit: "count", Better: lower},  // moves as core.msgs_per_cs
	{Name: "core.fail_per_cs", Unit: "count", Better: lower},     // moves as core.msgs_per_cs
	{Name: "core.inquire_per_cs", Unit: "count", Better: lower},  // moves as core.msgs_per_cs
	{Name: "core.yield_per_cs", Unit: "count", Better: lower},    // moves as core.msgs_per_cs
	{Name: "core.transfer_share", Unit: "ratio", Better: higher}, // moves handoff_p50_us on *-heavy, sync_delay_T on sim-heavy
	{Name: "core.wait_p50_us", Unit: "us", Better: lower},        // moves acquire_p50_us
	{Name: "core.handoff_p50_us", Unit: "us", Better: lower},     // moves handoff_p50_us
	{Name: "core.step_ns", Unit: "ns", Better: lower},            // moves cpu_us_per_op on *-heavy; ops_per_s on sim-heavy
	{Name: "core.cpu_us_per_cs", Unit: "us", Better: lower},      // moves cpu_us_per_op on *-heavy; ops_per_s on sim-heavy
	{Name: "core.allocs_per_cs", Unit: "count", Better: lower},   // moves cpu_us_per_op on *-heavy
	// wire: the binary codec over the message mix core emits.
	{Name: "wire.encode_ns_per_msg", Unit: "ns", Better: lower}, // moves cpu_us_per_op on tcp-*, service-heavy
	{Name: "wire.decode_ns_per_msg", Unit: "ns", Better: lower}, // moves cpu_us_per_op on tcp-*, service-heavy
	{Name: "wire.bytes_per_msg", Unit: "B", Better: lower},      // moves cpu_us_per_op on tcp-*, service-heavy
	{Name: "wire.allocs_per_msg", Unit: "count", Better: lower}, // moves cpu_us_per_op on tcp-*, service-heavy
	// transport: one message's trip, and what the reliable sublayer wastes.
	{Name: "transport.inproc_rtt_p50_us", Unit: "us", Better: lower},     // moves handoff_p50_us on inproc-heavy
	{Name: "transport.tcp_rtt_p50_us", Unit: "us", Better: lower},        // moves handoff_p50_us on tcp-heavy 1:1 (rtt/2); acquire_p50_us on tcp-light 2:1
	{Name: "transport.tcp_rtt_p99_us", Unit: "us", Better: lower},        // moves acquire_p99_us on tcp-light
	{Name: "transport.tcp_msgs_per_s", Unit: "1/s", Better: higher},      // moves bounds ops_per_s on tcp-heavy
	{Name: "transport.hops_per_handoff", Unit: "ratio", Better: lower},   // moves paper: 1 on *-heavy (Maekawa 2)
	{Name: "transport.hops_per_acquire", Unit: "ratio", Better: lower},   // moves paper: 2 on tcp-light
	{Name: "transport.retransmits_per_cs", Unit: "count", Better: lower}, // moves cpu_us_per_op on tcp-*
	{Name: "transport.acks_per_cs", Unit: "count", Better: lower},        // moves cpu_us_per_op on tcp-*
	{Name: "transport.dup_drops_per_cs", Unit: "count", Better: lower},   // moves cpu_us_per_op on tcp-*
	// resource: the goroutine hops between the caller and the site.
	{Name: "resource.acquire_in_p50_us", Unit: "us", Better: lower}, // moves acquire_p50_us on tcp-light
	{Name: "resource.wake_p50_us", Unit: "us", Better: lower},       // moves acquire_p50_us on tcp-light; handoff_p50_us on inproc-heavy
	{Name: "resource.release_p50_us", Unit: "us", Better: lower},    // moves handoff_p50_us on inproc-heavy
	{Name: "resource.lookup_ns", Unit: "ns", Better: lower},         // moves setup_s only
	// session: the client-to-arbiter hop, service-heavy only.
	{Name: "session.in_p50_us", Unit: "us", Better: lower},    // moves acquire_p50_us on service-heavy
	{Name: "session.out_p50_us", Unit: "us", Better: lower},   // moves acquire_p50_us, handoff_p50_us on service-heavy
	{Name: "session.rtt_p50_us", Unit: "us", Better: lower},   // moves acquire_p50_us on service-heavy
	{Name: "session.overloads", Unit: "count", Better: lower}, // moves must be 0
	{Name: "session.expires", Unit: "count", Better: lower},   // moves must be 0
	// obs: what tracing costs; it may never move an end-to-end metric.
	{Name: "obs.observe_ns", Unit: "ns", Better: lower},       // moves obs.overhead_pct only
	{Name: "obs.events_per_cs", Unit: "count", Better: lower}, // moves obs.overhead_pct only
	{Name: "obs.overhead_pct", Unit: "%", Better: lower},      // moves none: end-to-end runs have obs off
	// sim: the event kernel.
	{Name: "sim.events_per_s", Unit: "1/s", Better: higher},   // moves ops_per_s on sim-*
	{Name: "sim.ns_per_event", Unit: "ns", Better: lower},     // moves ops_per_s on sim-*
	{Name: "sim.events_per_cs", Unit: "count", Better: lower}, // moves ops_per_s on sim-*
	// coterie: quorum assignment.
	{Name: "coterie.assign_us", Unit: "us", Better: lower},      // moves setup_s
	{Name: "coterie.quorum_size", Unit: "count", Better: lower}, // moves msgs_per_cs band 3(K-1)..6(K-1)
	// proc: the whole process over the untraced window.
	{Name: "proc.allocs_per_op", Unit: "count", Better: lower},       // moves cpu_us_per_op
	{Name: "proc.alloc_bytes_per_op", Unit: "B", Better: lower},      // moves cpu_us_per_op, peak_rss_mb
	{Name: "proc.gc_pause_us_per_op", Unit: "us", Better: lower},     // moves acquire_p99_us, handoff_p99_us
	{Name: "proc.ctx_switches_per_op", Unit: "count", Better: lower}, // moves cpu_us_per_op; falls on tcp-heavy if reader, dispatch and site share a goroutine
	{Name: "proc.goroutines", Unit: "count", Better: lower},          // moves peak_rss_mb
	// loader: does the sum of the layers reconcile with the whole?
	{Name: "loader.cycle_unaccounted_pct", Unit: "%", Better: lower},   // moves above 10: the harness or an unknown layer hides time on *-heavy
	{Name: "loader.acquire_unaccounted_pct", Unit: "%", Better: lower}, // moves above 10: the same, on tcp-light
}

// perLayer is everything reported without a bound.
var perLayer = append(append([]metricDef{}, timings...), ledger...)
