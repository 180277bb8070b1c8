// Command dqmbench is the live-cluster benchmark front end: it sweeps
// cluster size × quorum construction × load × driver over real protocol
// deployments (in-process fabric or loopback TCP), prints a human-readable
// table, and writes the full results as a machine-readable
// BENCH_live_<name>.json artifact (schema dqmx/bench-live/v1; see
// internal/loadgen).
//
// Usage:
//
//	dqmbench                                   # default sweep, table + JSON
//	dqmbench -n 9,25 -quorum grid,tree -driver inproc,tcp
//	dqmbench -arrival open -rate 500 -resources 8 -dist zipf
//	dqmbench -ab                               # delay-optimal vs maekawa (T vs 2T) A/B
//	dqmbench -ab -driver tcp -n 7 -quorum tree # the paper's claim, on TCP
//	dqmbench -n 5 -quorum majority -reconfigure 7  # acquire p99 across a live epoch switch
//
// Every run is seeded (-seed): rerunning with the same flags replays the
// same key and arrival sequences. The -hop flag imposes a deterministic
// per-hop message delay (chaos delay on inproc, the transport's
// Wire.LinkDelay on TCP), which is what makes the T-versus-2T structure
// visible above loopback noise.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dqmx/internal/loadgen"
)

func main() {
	var (
		ns        = flag.String("n", "9", "comma-separated cluster sizes")
		quorums   = flag.String("quorum", "grid", "comma-separated quorum constructions")
		drivers   = flag.String("driver", "inproc", "comma-separated drivers (inproc, tcp, service)")
		clients   = flag.String("clients", "16", "comma-separated leased-client counts (service driver)")
		lease     = flag.Duration("lease", 0, "session lease TTL (service driver; 0 = default)")
		protocol  = flag.String("protocol", "delay-optimal", "protocol under test")
		resources = flag.Int("resources", 1, "number of named locks")
		dist      = flag.String("dist", "uniform", "key distribution (uniform, zipf)")
		zipfS     = flag.Float64("zipf-s", 1.2, "zipf exponent (>1)")
		arrival   = flag.String("arrival", "closed", "population model (closed, open)")
		workers   = flag.Int("workers", 0, "population size (default: cluster size)")
		rate      = flag.Float64("rate", 300, "open-loop arrivals per second")
		think     = flag.Duration("think", 0, "closed-loop mean think time (0 = saturated)")
		hold      = flag.Duration("hold", 500*time.Microsecond, "critical-section hold time")
		hop       = flag.Duration("hop", 2*time.Millisecond, "deterministic per-hop message delay")
		warmup    = flag.Duration("warmup", 500*time.Millisecond, "warmup before the measure window")
		measure   = flag.Duration("measure", 2*time.Second, "measure window")
		seed      = flag.Int64("seed", 42, "generator seed (same seed, same sequences)")
		ab        = flag.Bool("ab", false, "run each cell twice: delay-optimal (transfer, T) vs maekawa (release via the arbiter, 2T)")
		reconf    = flag.Int("reconfigure", 0, "grow the cluster to this size mid-measure (inproc driver; joint-quorum handover)")
		outDir    = flag.String("out", ".", "directory for the BENCH_live_<name>.json artifact")
		name      = flag.String("name", "", "artifact name (default: sweep or handoff-ab)")
	)
	flag.Parse()

	sizes, err := parseInts(*ns)
	if err != nil {
		fatal(fmt.Errorf("-n: %w", err))
	}
	clientCounts, err := parseInts(*clients)
	if err != nil {
		fatal(fmt.Errorf("-clients: %w", err))
	}
	artifactName := *name
	if artifactName == "" {
		if *ab {
			artifactName = "handoff-ab"
		} else {
			artifactName = "sweep"
		}
	}

	var runs []*loadgen.Report
	w := newTable()
	for _, driver := range splitList(*drivers) {
		// The service driver sweeps the leased-client count against a fixed
		// coterie; the site drivers have exactly one population per size.
		counts := []int{0}
		if driver == loadgen.DriverService {
			counts = clientCounts
		}
		for _, quorum := range splitList(*quorums) {
			for _, n := range sizes {
				for _, nClients := range counts {
					cfg := loadgen.Config{
						Driver:      driver,
						Protocol:    *protocol,
						Quorum:      quorum,
						N:           n,
						Clients:     nClients,
						Resources:   *resources,
						Dist:        *dist,
						ZipfS:       *zipfS,
						Arrival:     *arrival,
						Workers:     *workers,
						Rate:        *rate,
						Think:       *think,
						Hold:        *hold,
						HopDelay:    *hop,
						Warmup:      *warmup,
						Measure:     *measure,
						Seed:        *seed,
						Reconfigure: *reconf,
					}
					if driver == loadgen.DriverService {
						cfg.Lease = *lease
					}
					if *ab {
						res, err := loadgen.RunAB(cfg)
						if err != nil {
							fatal(err)
						}
						runs = append(runs, res.Transfer, res.Fallback)
						w.row(res.Transfer)
						w.row(res.Fallback)
						fmt.Printf("    -> handoff p50 fallback/transfer = %.2fx (transfer %v, fallback %v)\n",
							res.HandoffRatio(),
							time.Duration(res.Transfer.Handoff.P50),
							time.Duration(res.Fallback.Handoff.P50))
					} else {
						rep, err := loadgen.Run(cfg)
						if err != nil {
							fatal(err)
						}
						runs = append(runs, rep)
						w.row(rep)
						if rep.ReconfigureN > 0 {
							fmt.Printf("    -> epoch switch %d→%d sites in %.1fms (epoch %d); acq-p99 before/during/after = %v/%v/%v\n",
								rep.N, rep.ReconfigureN, rep.SwitchMS, rep.EpochAfter,
								time.Duration(rep.AcquireBefore.P99),
								time.Duration(rep.AcquireDuring.P99),
								time.Duration(rep.AcquireAfter.P99))
						}
					}
				}
			}
		}
	}

	path, err := loadgen.NewArtifact(artifactName, runs).Write(*outDir)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nwrote %s (%d runs, schema %s)\n", path, len(runs), loadgen.SchemaVersion)
}

// table prints one aligned row per run, with the header emitted lazily.
type table struct {
	headerDone bool
}

func newTable() *table { return &table{} }

func (t *table) row(r *loadgen.Report) {
	if !t.headerDone {
		fmt.Printf("%-7s %-6s %3s %4s %-8s %-6s %9s %8s %11s %11s %11s %9s %7s\n",
			"driver", "quorum", "n", "cli", "arrival", "xfer",
			"ops", "thr/s", "acq-p50", "acq-p99", "handoff-p50", "msgs/cs", "retx")
		t.headerDone = true
	}
	xfer := "on"
	if !r.Transfer {
		xfer = "off"
	}
	cli := "-" // site drivers have no client tier
	if r.Clients > 0 {
		cli = strconv.Itoa(r.Clients)
	}
	fmt.Printf("%-7s %-6s %3d %4s %-8s %-6s %9d %8.1f %11v %11v %11v %9.2f %7d\n",
		r.Driver, r.Quorum, r.N, cli, r.Arrival, xfer,
		r.Ops, r.Throughput,
		time.Duration(r.Acquire.P50), time.Duration(r.Acquire.P99),
		time.Duration(r.Handoff.P50), r.MessagesPerCS, r.Retransmits)
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dqmbench:", err)
	os.Exit(1)
}
