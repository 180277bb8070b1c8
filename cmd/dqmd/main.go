// Command dqmd runs one site of a delay-optimal mutual exclusion cluster
// over TCP. Start one process per site, give each the full address book,
// and drive it interactively (acquire / release / quit on stdin) or with
// -demo for an automated acquire/release loop.
//
// Example three-site cluster on one machine:
//
//	dqmd -id 0 -n 3 -listen :7100 -peers 1=localhost:7101,2=localhost:7102 -demo 5
//	dqmd -id 1 -n 3 -listen :7101 -peers 0=localhost:7100,2=localhost:7102 -demo 5
//	dqmd -id 2 -n 3 -listen :7102 -peers 0=localhost:7100,1=localhost:7101 -demo 5
//
// A site is a lock manager, not a single mutex: the interactive commands
// take an optional lock name (acquire orders / release orders), -lock picks
// the named lock the demo loop drives, and every name runs its own instance
// of the protocol over the same peers. No name means the default resource —
// the single mutex of earlier versions.
//
// # Lock-service mode
//
// With -serve the site becomes an arbiter of the lock-service tier: besides
// the protocol traffic on -listen it leases lock sessions to clients on the
// -serve address (-lease tunes the lease TTL). A separate process attaches
// with -dial and drives named locks through its session — it never joins
// the coterie:
//
//	dqmd -id 0 -n 3 -listen :7100 -peers ... -serve :7200
//	dqmd -id 1 -n 3 -listen :7101 -peers ... -serve :7201
//	dqmd -id 2 -n 3 -listen :7102 -peers ... -serve :7202
//	dqmd -dial localhost:7200,localhost:7201 -lock orders -demo 5
//
// The -dial address list is the client's failover chain; a crashed client's
// locks are reclaimed when its lease runs out. Client mode takes -lock,
// -demo, -settle and the interactive commands; the site/coterie flags (-id,
// -n, -listen, -peers, -quorum, -serve, -http) are arbiter-side only.
//
// With -http each site also serves live observability for its own protocol
// activity:
//
//	/metrics     the metrics snapshot as JSON (per-kind message counters,
//	             messages per CS, sync/response/waiting delay stats in ns,
//	             the membership epoch/stage, and — on arbiters — session
//	             lifecycle counters); ?resource=name isolates one named lock
//	/debug       a human-readable status page with the snapshot, the
//	             membership epoch, the instantiated lock names,
//	             session/lease counters when serving, and the most recent
//	             events
//	/debug/vars  the aggregate snapshot under the "dqmx" expvar
//	/reconfigure apply one phase of a joint-quorum membership handover to
//	             this site (POST; operator-driven — see below)
//
// # Reconfiguration
//
// A TCP cluster changes size or coterie without stopping: the operator
// plans one handover and applies it phase by phase, to every site, via
// /reconfigure. Growing a 3-site grid cluster to 5:
//
//	# 1. start sites 3 and 4 with the full 5-site address book
//	# 2. joint phase on EVERY site (old and new):
//	curl -X POST 'host0:8100/reconfigure?phase=joint&to=5'
//	...
//	# 3. once all report the joint stage, final phase on every site:
//	curl -X POST 'host0:8100/reconfigure?phase=final&to=5'
//	...
//
// Query parameters: to (target size, required), quorum (target
// construction, default: this site's -quorum), from (current size, default:
// this site's view) and from-quorum (current construction). The final phase
// must not start anywhere until the joint phase finished everywhere —
// mutual exclusion is safe in any interleaving within a phase, not across
// phases. Shrinking works the same; departing sites are simply stopped
// after the final phase.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"dqmx"
	"dqmx/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dqmd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id        = flag.Int("id", 0, "this site's id (0..n-1)")
		n         = flag.Int("n", 3, "total number of sites")
		listen    = flag.String("listen", ":7100", "listen address for protocol traffic")
		peersIn   = flag.String("peers", "", "address book: id=host:port,id=host:port,...")
		quorum    = flag.String("quorum", "grid", "quorum construction: "+quorumNames())
		demo      = flag.Int("demo", 0, "acquire/release this many times and exit (0 = interactive)")
		lockName  = flag.String("lock", "", "named lock to drive (default: the default resource; client mode: \"default\")")
		settle    = flag.Duration("settle", 2*time.Second, "wait before the demo starts so peers can come up")
		httpAddr  = flag.String("http", "", "serve /metrics, /debug and /debug/vars on this address")
		serveAddr = flag.String("serve", "", "lease client sessions on this address (arbiter mode)")
		lease     = flag.Duration("lease", 0, "session lease TTL (arbiter and client mode; 0 = service default)")
		dialIn    = flag.String("dial", "", "attach as a lock-service client to these arbiter addresses (host:port,...)")
	)
	flag.Parse()
	begin := time.Now()

	if *dialIn != "" {
		if *serveAddr != "" {
			return fmt.Errorf("-dial (client mode) and -serve (arbiter mode) are mutually exclusive")
		}
		return runClient(*dialIn, *lease, *demo, *lockName, *settle, begin)
	}

	peers := map[dqmx.SiteID]string{}
	if *peersIn != "" {
		for _, part := range strings.Split(*peersIn, ",") {
			kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
			if len(kv) != 2 {
				return fmt.Errorf("bad -peers entry %q", part)
			}
			pid, err := strconv.Atoi(kv[0])
			if err != nil {
				return fmt.Errorf("bad peer id %q: %w", kv[0], err)
			}
			peers[dqmx.SiteID(pid)] = kv[1]
		}
	}

	opts := dqmx.Options{Quorum: dqmx.Quorum(*quorum)}
	var ring *obs.Ring
	if *httpAddr != "" {
		// The HTTP endpoints need the aggregator and a recent-event log.
		opts.Observe.Metrics = true
		ring = obs.NewRing(256)
		opts.Observe.Observer = ring.Observe
	}
	if err := opts.Validate(); err != nil {
		return err
	}

	var (
		peer *dqmx.TCPPeer
		srv  *dqmx.Server
	)
	if *serveAddr != "" {
		s, err := dqmx.Serve(dqmx.ServeConfig{
			N:            *n,
			ID:           dqmx.SiteID(*id),
			PeerListen:   *listen,
			Peers:        peers,
			ClientListen: *serveAddr,
			Lease:        *lease,
			Options:      opts,
		})
		if err != nil {
			return err
		}
		defer s.Close()
		srv, peer = s, s.Peer()
		fmt.Printf("site %d/%d listening on %s (quorum: %s), serving sessions on %s\n",
			*id, *n, peer.Addr(), *quorum, srv.ClientAddr())
	} else {
		p, err := dqmx.NewTCPNode(*n, dqmx.SiteID(*id), *listen, peers, opts)
		if err != nil {
			return err
		}
		defer p.Close()
		peer = p
		fmt.Printf("site %d/%d listening on %s (quorum: %s)\n", *id, *n, peer.Addr(), *quorum)
	}

	if *httpAddr != "" {
		if err := serveHTTP(*httpAddr, *id, *n, *quorum, peer, ring, srv); err != nil {
			return err
		}
	}

	resolve := func(name string) (locker, error) { return lockerFor(peer, name) }
	who := fmt.Sprintf("site %d", *id)
	if *demo > 0 {
		// Measure the settle window from process start so slower startup
		// paths (e.g. bringing up the HTTP server) don't skew this site's
		// demo behind its peers'.
		if d := *settle - time.Since(begin); d > 0 {
			time.Sleep(d)
		}
		return runDemo(resolve, who, *demo, *lockName)
	}
	return runInteractive(resolve, who, *lockName, peer.Resources)
}

// runClient is -dial: attach a leased session to the arbiter coterie and
// drive named locks through it. The empty lock name maps to "default" —
// sessions have no default resource; every lock is named.
func runClient(dialIn string, lease time.Duration, demo int, lockName string, settle time.Duration, begin time.Time) error {
	addrs := []string{}
	for _, a := range strings.Split(dialIn, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	sess, err := dqmx.Dial(ctx, addrs, dqmx.DialConfig{Lease: lease})
	cancel()
	if err != nil {
		return err
	}
	defer sess.Close()
	fmt.Printf("client: session %d attached (failover chain: %s)\n", sess.ID(), strings.Join(addrs, ", "))
	resolve := func(name string) (locker, error) {
		if name == "" {
			name = "default"
		}
		return sess.Lock(name)
	}
	if demo > 0 {
		if d := settle - time.Since(begin); d > 0 {
			time.Sleep(d)
		}
		return runDemo(resolve, "client", demo, lockName)
	}
	return runInteractive(resolve, "client", lockName, nil)
}

// locker is the common surface of the default-resource Node and a named
// Lock, so the demo and interactive loops drive either.
type locker interface {
	Acquire(ctx context.Context) error
	TryAcquire(ctx context.Context) (bool, error)
	Release() error
}

// lockerFor resolves a lock name to its handle; the empty name is the
// default resource.
func lockerFor(peer *dqmx.TCPPeer, name string) (locker, error) {
	if name == "" {
		return peer.Node(), nil
	}
	return peer.Lock(name)
}

func quorumNames() string {
	qs := dqmx.Quorums()
	names := make([]string, len(qs))
	for i, q := range qs {
		names[i] = string(q)
	}
	return strings.Join(names, ", ")
}

// stageInfo decodes a membership stage into its epoch and phase (stable
// stages are even, joint stages odd — see internal/membership).
func stageInfo(stage uint64) (epoch uint64, joint bool) { return stage / 2, stage%2 == 1 }

func serveHTTP(addr string, id, n int, quorum string, peer *dqmx.TCPPeer, ring *obs.Ring, srv *dqmx.Server) error {
	snapshot := func() dqmx.MetricsSnapshot {
		s, _ := peer.Snapshot()
		return s
	}
	expvar.Publish("dqmx", expvar.Func(func() any { return snapshot() }))
	http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s := snapshot()
		if name := r.URL.Query().Get("resource"); name != "" {
			var ok bool
			if s, ok = peer.SnapshotResource(name); !ok {
				http.Error(w, fmt.Sprintf("no metrics for resource %q", name), http.StatusNotFound)
				return
			}
		}
		epoch, joint := stageInfo(peer.Stage())
		out := struct {
			Epoch uint64 `json:"epoch"`
			Stage uint64 `json:"stage"`
			Joint bool   `json:"joint"`
			dqmx.MetricsSnapshot
		}{epoch, peer.Stage(), joint, s}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
	http.HandleFunc("/reconfigure", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if err := handleReconfigure(r, id, quorum, peer); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		epoch, joint := stageInfo(peer.Stage())
		fmt.Fprintf(w, "site %d now at epoch %d (stage %d, joint=%v), n=%d\n",
			id, epoch, peer.Stage(), joint, peer.N())
	})
	http.HandleFunc("/debug", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s := snapshot()
		fmt.Fprintf(w, "site %d of %d\n", id, n)
		epoch, joint := stageInfo(peer.Stage())
		fmt.Fprintf(w, "membership  epoch %d  stage %d  joint %v  n %d\n", epoch, peer.Stage(), joint, peer.N())
		if hint, behind := peer.MembershipHint(); behind {
			fmt.Fprintf(w, "WARNING: peers run membership stage %d; this site slept through a reconfiguration\n", hint)
		}
		fmt.Fprintf(w, "\n")
		fmt.Fprintf(w, "locks:")
		for _, name := range peer.Resources() {
			if name == "" {
				name = "(default)"
			}
			fmt.Fprintf(w, " %s", name)
		}
		fmt.Fprintf(w, "\n")
		fmt.Fprintf(w, "requests %d  entries %d  exits %d  failures %d  recoveries %d\n",
			s.Requests, s.Entries, s.Exits, s.Failures, s.Recoveries)
		fmt.Fprintf(w, "messages %d (%.2f per CS)\n", s.Messages, s.MessagesPerCS)
		for _, kind := range s.Kinds() {
			fmt.Fprintf(w, "  %-10s %d\n", kind, s.ByKind[kind])
		}
		fmt.Fprintf(w, "sync delay  %s\nresponse    %s\nwaiting     %s\n",
			fmtDelay(s.SyncDelay), fmtDelay(s.Response), fmtDelay(s.Waiting))
		fmt.Fprintf(w, "transport   retransmits %d  dups suppressed %d  acks %d\n",
			s.Transport.Retransmits, s.Transport.DupSuppressed, s.Transport.AcksSent)
		if srv != nil {
			st := srv.SessionStats()
			fmt.Fprintf(w, "sessions    active %d  opened %d  attaches %d  expired %d  closed %d  reclaimed %d\n",
				st.Active, st.Opened, st.Attaches, st.Expired, st.Closed, st.Reclaimed)
		}
		fmt.Fprintf(w, "\nrecent events (oldest first):\n")
		for _, e := range ring.Events() {
			fmt.Fprintln(w, e)
		}
	})
	errC := make(chan error, 1)
	go func() { errC <- http.ListenAndServe(addr, nil) }()
	// Give a bad address a moment to fail loudly instead of dying silently
	// in the background.
	select {
	case err := <-errC:
		return fmt.Errorf("http %s: %w", addr, err)
	case <-time.After(100 * time.Millisecond):
		fmt.Printf("site %d serving /metrics and /debug on %s\n", id, addr)
		return nil
	}
}

// handleReconfigure applies one handover phase to the local peer. The plan
// is recomputed from the query parameters on every call — quorum
// assignments are deterministic, so sites planning independently from the
// same parameters agree on every req_set.
func handleReconfigure(r *http.Request, id int, defQuorum string, peer *dqmx.TCPPeer) error {
	q := r.URL.Query()
	to, err := strconv.Atoi(q.Get("to"))
	if err != nil || to < 1 {
		return fmt.Errorf("bad or missing target size %q (want ?to=N)", q.Get("to"))
	}
	from := peer.N()
	if v := q.Get("from"); v != "" {
		if from, err = strconv.Atoi(v); err != nil {
			return fmt.Errorf("bad current size %q: %w", v, err)
		}
	}
	newQ := q.Get("quorum")
	if newQ == "" {
		newQ = defQuorum
	}
	oldQ := q.Get("from-quorum")
	if oldQ == "" {
		oldQ = defQuorum
	}
	epoch, joint := stageInfo(peer.Stage())
	if v := q.Get("epoch"); v != "" {
		// A joining site starts at epoch 0 and must be told the cluster's
		// real epoch for its joint stage to match everyone else's.
		if epoch, err = strconv.ParseUint(v, 10, 64); err != nil {
			return fmt.Errorf("bad epoch %q: %w", v, err)
		}
		joint = false
	}
	phase := q.Get("phase")
	switch phase {
	case "joint":
		if joint {
			return fmt.Errorf("site already runs a joint stage (epoch %d); finish that handover first", epoch)
		}
	case "final":
		if !joint && q.Get("epoch") == "" {
			return fmt.Errorf("site runs a stable stage (epoch %d); apply phase=joint everywhere first", epoch)
		}
	default:
		return fmt.Errorf("bad phase %q (want ?phase=joint or ?phase=final)", phase)
	}
	plan, err := dqmx.PlanHandover(epoch, from, dqmx.Quorum(oldQ), to, dqmx.Quorum(newQ))
	if err != nil {
		return err
	}
	if phase == "joint" {
		return plan.ApplyJoint(peer, dqmx.SiteID(id))
	}
	return plan.ApplyFinal(peer, dqmx.SiteID(id))
}

func fmtDelay(d dqmx.DelayStats) string {
	if d.Count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v",
		d.Count, time.Duration(d.Mean), time.Duration(d.P50),
		time.Duration(d.P95), time.Duration(d.P99))
}

func runDemo(resolve func(string) (locker, error), who string, rounds int, lockName string) error {
	lock, err := resolve(lockName)
	if err != nil {
		return err
	}
	what := "CS"
	if lockName != "" {
		what = fmt.Sprintf("CS of %q", lockName)
	}
	for k := 0; k < rounds; k++ {
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err := lock.Acquire(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("round %d acquire: %w", k, err)
		}
		fmt.Printf("%s: entered %s (round %d, waited %v)\n", who, what, k, time.Since(start).Round(time.Millisecond))
		time.Sleep(50 * time.Millisecond) // the critical section
		if err := lock.Release(); err != nil {
			return fmt.Errorf("round %d release: %w", k, err)
		}
		fmt.Printf("%s: exited %s (round %d)\n", who, what, k)
	}
	return nil
}

// runInteractive drives the stdin command loop. listLocks reports the
// instantiated lock names for the "locks" command; nil when the process has
// no local view of them (client mode — locks live on the arbiters).
func runInteractive(resolveName func(string) (locker, error), who, defaultLock string, listLocks func() []string) error {
	sc := bufio.NewScanner(os.Stdin)
	fmt.Println("commands: acquire [lock] | try [lock] [timeout] | release [lock] | locks | quit")
	// resolve turns a command's optional lock-name argument into a handle,
	// falling back to the -lock flag (or the default resource).
	resolve := func(arg string) (locker, error) {
		name := defaultLock
		if arg != "" {
			name = arg
		}
		return resolveName(name)
	}
	for {
		fmt.Printf("%s> ", who)
		if !sc.Scan() {
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		cmd, arg, _ := strings.Cut(line, " ")
		arg = strings.TrimSpace(arg)
		switch cmd {
		case "acquire":
			lock, err := resolve(arg)
			if err != nil {
				fmt.Println("acquire failed:", err)
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			err = lock.Acquire(ctx)
			cancel()
			if err != nil {
				fmt.Println("acquire failed:", err)
				continue
			}
			fmt.Println("in critical section")
		case "try":
			// "try", "try 200ms", "try orders", "try orders 200ms": an
			// argument that parses as a duration is the timeout.
			name, rest, _ := strings.Cut(arg, " ")
			timeout := 100 * time.Millisecond
			if d, err := time.ParseDuration(name); err == nil && rest == "" {
				name, timeout = "", d
			} else if rest != "" {
				d, err := time.ParseDuration(strings.TrimSpace(rest))
				if err != nil {
					fmt.Println("bad timeout:", err)
					continue
				}
				timeout = d
			}
			lock, err := resolve(name)
			if err != nil {
				fmt.Println("try failed:", err)
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			ok, err := lock.TryAcquire(ctx)
			cancel()
			switch {
			case err != nil:
				fmt.Println("try failed:", err)
			case ok:
				fmt.Println("in critical section")
			default:
				fmt.Println("not acquired within", timeout)
			}
		case "release":
			lock, err := resolve(arg)
			if err != nil {
				fmt.Println("release failed:", err)
				continue
			}
			if err := lock.Release(); err != nil {
				fmt.Println("release failed:", err)
				continue
			}
			fmt.Println("released")
		case "locks":
			if listLocks == nil {
				fmt.Println("  (not tracked client-side; locks live on the arbiters)")
				continue
			}
			for _, name := range listLocks() {
				if name == "" {
					name = "(default)"
				}
				fmt.Println(" ", name)
			}
		case "quit", "exit":
			return nil
		case "":
		default:
			fmt.Println("unknown command")
		}
	}
}
