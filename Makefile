GO ?= go

.PHONY: check fmtcheck wirecheck clockcheck avoidcheck hostcheck ordercheck vet crosscheck build test race chaos soak fuzz modelcheck modelcheck-soak allocs benchmark vt bench-smoke bench-sim tables tablescheck fmt apicheck apibase loc

# The standard gate: what CI and pre-commit should run. race already runs
# the full seeded conformance sweep (internal/chaos/sweep) under -race;
# chaos adds the short fuzz smoke on top, modelcheck the exhaustive small-N
# schedule enumeration, vt the paper's T-vs-2T claim on the live runtime in
# virtual time (exact, against the simulator) and the conformance sweep on
# the same clock, bench-smoke the same claim on the host clock plus the live
# scale and reconfiguration tests; apicheck fails on any
# drift of the root package's exported surface from api/dqmx.api; allocs
# holds the hot paths to their allocation budgets; tablescheck fails when a
# reproduced number moved without evaluation.txt; fmtcheck fails on any file
# gofmt would rewrite; wirecheck on a wire codec outside the live stack;
# clockcheck on a live-runtime timer or time reading outside internal/clock;
# avoidcheck on a §6 avoiding rule applied outside the membership plan;
# hostcheck on a lock instance built, or told of a crash or a membership
# stage, outside the transport's per-site host; ordercheck on a timestamp
# order rule stated outside the conformance ledger; crosscheck on code that
# does not compile for Windows.
check: fmtcheck wirecheck clockcheck avoidcheck hostcheck ordercheck vet crosscheck build apicheck tablescheck race chaos modelcheck allocs vt bench-smoke

fmtcheck:
	test -z "$$(gofmt -l .)"

# Only the live stack has wire codecs: core's §3.1 messages, the transport's
# own frames, the session tier and the benchmark's probe. The baselines are
# sim-only and in-process-only, and this keeps them that way: it fails, naming
# the lines, on a wire.RegisterMessage or wire.RegisterInline in non-test Go
# anywhere else.
wirecheck:
	@! git grep -n --untracked -E 'wire\.Register(Message|Inline)\(' -- '*.go' ':!*_test.go' \
		':!internal/core/' ':!internal/session/' ':!internal/transport/' ':!internal/wire/' ':!benchmark/'

# One clock for the live runtime: every reading of time and every wait in
# transport, session, chaos and obs goes through internal/clock, so a test or
# a virtual clock owns the whole schedule. It fails, naming the lines, on a
# direct host-clock call in non-test Go there. Socket deadlines stay on the
# host clock: the kernel enforces them.
clockcheck:
	@! git grep -n --untracked -E 'time\.(Now|Since|Until|Sleep|After|AfterFunc|NewTimer|NewTicker|Tick)\(' -- \
		'internal/transport/*.go' 'internal/session/*.go' 'internal/chaos/*.go' 'internal/obs/*.go' ':!*_test.go' \
		| grep -v -E 'Set(Read|Write)?Deadline\(time\.Now\(\)'

# One §6 rule: which quorum a site rebuilds around a crash is stated by the
# membership plan (internal/membership hands it to a site in its
# mutex.Membership) over the constructions' own rules (internal/coterie), and
# run by the site (internal/core). It fails, naming the lines, on a
# QuorumAvoiding( or JointAvoiding( call in non-test Go anywhere else;
# cmd/quorumgen is exempt, as an inspection CLI that prints avoiding quorums.
avoidcheck:
	@! git grep -n --untracked -E '(QuorumAvoiding|JointAvoiding)\(' -- '*.go' ':!*_test.go' \
		':!internal/coterie/' ':!internal/membership/' ':!internal/core/' ':!cmd/quorumgen/'

# One host per site: the in-process cluster and the TCP peer both build a
# lock instance, record a crash and record a membership stage through
# internal/transport's host, so each of those rules is written once. It
# fails, naming the lines, on a failureEnvelope( or SetMembership( call in
# non-test internal/transport Go outside host.go and node.go (whose
# Node.Reconfigure runs the swap on the node's loop), and on a newNode( call
# there outside host.go (node.go only declares it).
hostcheck:
	@! git grep -n --untracked -E '(failureEnvelope|SetMembership)\(' -- 'internal/transport/*.go' ':!*_test.go' \
		':!internal/transport/host.go' ':!internal/transport/node.go'
	@! git grep -n --untracked -E '\bnewNode\(' -- 'internal/transport/*.go' ':!*_test.go' \
		':!internal/transport/host.go' | grep -v -E 'func newNode\('

# One conformance ledger: the chaos checker and the model checker assert the
# paper's claims through internal/chaos's Ledger (ledger.go), so each rule
# is written once. The order rule's timestamp comparison marks a copy: it
# fails, naming the lines, on a .Less( call in non-test chaos or modelcheck
# Go outside ledger.go.
ordercheck:
	@! git grep -n --untracked -E '\.Less\(' -- 'internal/chaos/*.go' 'internal/modelcheck/*.go' ':!*_test.go' \
		':!internal/chaos/ledger.go'

# Exported-API gate: cmd/apisnap re-derives the root package's surface and
# diffs it against the checked-in baseline. An intentional API change is a
# two-step: make the change, then `make apibase` and commit the baseline
# diff alongside it.
apicheck:
	$(GO) run ./cmd/apisnap -check api/dqmx.api

apibase:
	$(GO) run ./cmd/apisnap -write api/dqmx.api

vet:
	$(GO) vet ./...

# The Windows build: vet every package for windows/amd64, so the
# platform-split files (internal/transport's rawwrite_windows.go) compile.
# benchmark/ reads Unix rusage and is left out.
crosscheck:
	GOOS=windows GOARCH=amd64 $(GO) vet $$($(GO) list ./... | grep -v '^dqmx/benchmark$$')

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The full suite under the race detector. The explicit timeout is a
# hang detector, not a perf budget: the exhaustive modelcheck spaces run
# several minutes under -race and sit too close to go test's 10m default.
race:
	$(GO) test -race -timeout 30m ./...

# Seeded adversarial gate: the short conformance sweep, the lossy-liveness
# sweep (drop-only schedules must complete every round — the reliable
# delivery sublayer heals the loss), the checker on a plain cluster (no
# chaos plan, so no sublayer), connection churn on a live TCP grid (a
# seeded goroutine keeps closing inbound connections under a saturated
# lock: every acquire completes, the CS never holds two), and fuzz smokes
# of the TCP frame decoders plus the codec's struct-identity round trip.
# Replay a failing schedule with
#   DQMX_CHAOS_SEED=<seed> $(GO) test -race -run TestChaosConformance ./internal/chaos/sweep
chaos:
	$(GO) test -race -short -run 'TestChaosConformance|TestLossyLiveness|TestSessionConformance|TestPlainConformance|TestTCPConnectionChurn' ./internal/chaos/sweep ./internal/transport
	$(GO) test -run FuzzEnvelopeDecode -fuzz FuzzEnvelopeDecode -fuzztime 10s ./internal/transport
	$(GO) test -run FuzzAckFrameDecode -fuzz FuzzAckFrameDecode -fuzztime 10s ./internal/transport
	$(GO) test -run FuzzCodecDifferential -fuzz FuzzCodecDifferential -fuzztime 10s ./internal/core
	$(GO) test -run FuzzSessionFrame -fuzz FuzzSessionFrame -fuzztime 10s ./internal/session

# Exhaustive small-N model checking: every schedule of delivery, request,
# exit, crash, and crash-loss over the protocol state machine, with the
# conformance invariants asserted on every transition (internal/modelcheck).
# It runs every pinned space; modelcheck-soak adds two larger configurations
# through cmd/dqmcheck, which explores single configurations with custom
# budgets.
modelcheck:
	$(GO) test -run TestExhaustive -count=1 -timeout 10m ./internal/modelcheck

modelcheck-soak: modelcheck
	$(GO) run ./cmd/dqmcheck -n 4 -quorum majority -requesters 0,1,2 -bound=false -max-states 5e6
	$(GO) run ./cmd/dqmcheck -n 5 -quorum tree -requesters 0,4 -crashes 1 -bound=false -max-states 5e6

# Allocation budgets of the hot paths (testing.AllocsPerRun, so without the
# race detector, whose own allocations would count): one binary frame decode
# per inline message kind, one saturated CS through the core state machines,
# one uncontended in-process Acquire+Release, one mailbox put/drain cycle, one
# reliable-sublayer flush pass, a protocol message's whole way from encoder
# through a loopback socket into Deliver, one steady-state TCPPeer.Send
# through a destination's write role onto a loopback socket, one session
# critical section, client and arbiter together, one simulated critical section (allocations
# and bytes, over 10 000 CS) and the summary of that run, the simulator's
# 24-byte CS record and Records()' one copy of it per CS, and a first
# Lock(name) at a 9-site TCP peer and at site 0 of a 9-site in-process
# cluster. Each is pinned at the figure it reached; a
# regression is a red test here before it is a line in the benchmark's ledger.
allocs:
	$(GO) test -run 'TestAllocs' -count=1 ./internal/wire ./internal/core ./internal/transport ./internal/session ./internal/sim .

# The repository benchmark (benchmark/README.md): six workloads, the judged
# end-to-end metrics and the per-layer ledger, about 3 minutes on 2 cores.
# The result lands in .bench_build/result.json and is then compared with the
# committed baseline, row by row. A change that claims a gain runs ten
# alternating parent/change pairs per workload instead (see the README).
benchmark:
	bash benchmark/run.sh
	bash benchmark/run.sh -compare benchmark/baseline.json .bench_build/result.json

# Long adversarial soak: 10x the sweep plus model-boundary probes.
soak:
	$(GO) test -race -tags soak -timeout 60m ./internal/chaos/sweep

# Extended fuzzing of the wire decoders and the codec round trip.
fuzz:
	$(GO) test -run FuzzEnvelopeDecode -fuzz FuzzEnvelopeDecode -fuzztime 5m ./internal/transport
	$(GO) test -run FuzzAckFrameDecode -fuzz FuzzAckFrameDecode -fuzztime 5m ./internal/transport
	$(GO) test -run FuzzCodecDifferential -fuzz FuzzCodecDifferential -fuzztime 5m ./internal/core
	$(GO) test -run FuzzSessionFrame -fuzz FuzzSessionFrame -fuzztime 5m ./internal/session

# The live runtime in virtual time (testing/synctest, GOEXPERIMENT=synctest):
# TestLiveSyncDelayInT runs each saturated in-process cluster in a bubble,
# where a chaos hop costs exactly T, and holds delay-optimal to within 2% of
# the simulator's synchronization delay and Maekawa to exactly 2 T (E14 in
# EXPERIMENTS.md); the conformance sweep runs each schedule in a bubble with
# its seeds, bounds and watchdog unchanged. Each node keeps its own reply
# channels, so one test binary may run bubbled clusters and host-clock ones
# (the TCP row) in turn. Part of check.
vt:
	GOEXPERIMENT=synctest $(GO) test -run TestLiveSyncDelayInT -count=1 -v .
	GOEXPERIMENT=synctest $(GO) test -run 'TestChaosConformanceGrid|TestChaosConformanceTree' -count=1 ./internal/chaos/sweep

# Seconds-long live smoke on the host clock: the T-vs-2T hand-off ratio and
# the transfer-only-under-delay-optimal check on both fabrics
# (TestLiveSyncDelayInT), 64 leased clients on 3 arbiters
# (TestServiceLiveScale), per-CS quorum traffic inside the 3(K−1)..6(K−1)
# band at 8 and 32 clients (TestServiceScaling) and entries on both sides of
# each epoch switch over grid and majority quorums (TestReconfigureUnderLoad).
# Part of check.
bench-smoke:
	$(GO) test -run 'TestLiveSyncDelayInT|TestServiceLiveScale|TestServiceScaling|TestReconfigureUnderLoad' -count=1 -timeout 120s .

# Regenerate the paper's simulated evaluation (slow).
bench-sim:
	$(GO) test -bench=. -benchmem ./...

# Regenerate evaluation.txt, the paper's simulated evaluation as text tables
# (cmd/benchtab; a new table is one entry in internal/harness's Evaluation).
tables:
	$(GO) run ./cmd/benchtab > evaluation.txt.new
	mv evaluation.txt.new evaluation.txt

# The simulator is deterministic, so every cell of the evaluation is a
# constant: a protocol change that moves one runs `make tables` and commits
# the regenerated evaluation.txt in the same commit.
tablescheck:
	$(GO) run ./cmd/benchtab | diff - evaluation.txt

fmt:
	gofmt -l -w .

# Go line counts, non-test and test, per top-level directory. benchmark/ is
# fenced (a PR that is measured by it may not edit it), so it is reported
# apart and left out of the total: "the line count went down" is this
# target's output at the parent commit against its output at the change.
loc:
	@printf '%-12s %9s %9s\n' directory non-test test
	@git ls-files -z --cached --others --exclude-standard '*.go' | xargs -0 wc -l | awk ' \
		$$2 == "total" { next } \
		{ dir = ($$2 ~ /\//) ? substr($$2, 1, index($$2, "/") - 1) : "(root)"; \
		  kind = ($$2 ~ /_test\.go$$/) ? 2 : 1; \
		  n[dir, kind] += $$1; dirs[dir] = 1; \
		  if (dir != "benchmark") total[kind] += $$1 } \
		END { for (d in dirs) if (d != "benchmark") printf "0 %-12s %9d %9d\n", d, n[d, 1], n[d, 2]; \
		  printf "1 %-12s %9d %9d\n", "total", total[1], total[2]; \
		  printf "2 %-12s %9d %9d\n", "benchmark", n["benchmark", 1], n["benchmark", 2] }' \
		| sort | cut -c3-
