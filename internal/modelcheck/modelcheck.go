// Package modelcheck exhaustively verifies small protocol configurations by
// enumerating every reachable state of the per-site state machines under
// per-channel-FIFO message delivery.
//
// The explorer owns a model of the whole system — one Site state machine per
// site, one FIFO queue per directed (from, to) channel, the identity of the
// current CS holder, and each site's remaining CS budget — and at every step
// branches over the enabled nondeterministic choices:
//
//   - deliver the head of any non-empty channel;
//   - let an idle site issue its next request;
//   - let the current holder exit the critical section;
//   - crash a live site (bounded by Config.Crashes): its in-flight inbound
//     messages are lost, later messages addressed to it are dropped, and every
//     survivor receives a §6 failure notification on its own detector channel,
//     so notifications interleave freely with protocol traffic and with each
//     other — exactly the races the recovery protocol must survive;
//   - with Config.Handover, step one site through the joint-quorum membership
//     switch (internal/membership): apply-joint at any point, apply-final once
//     the settle barrier holds — so the safety invariant is proven across
//     every interleaving of the epoch switch with protocol traffic.
//
// States are deduplicated by a byte key: each site's Site.AppendCanonical, the
// explorer's own bookkeeping in a fixed binary layout, and every in-flight
// message as the v1 codec's payload bytes (wire.AppendPayload). The search
// covers the full state space up to that equivalence rather than a tree of
// runs. Invariants are pluggable (see Invariant); the standard ones read the
// verdicts of the chaos package's Ledger, which states the conformance rules
// for both checkers and is part of every state. A violation carries the
// exact choice sequence that reached it, replayable with Replay, plus a
// per-site state dump.
//
// This is the repository's second verification pillar next to the chaos
// sweep: chaos samples deep schedules on big topologies under a lossy
// transport, the model checker proves every schedule of a small fault-budget
// configuration over the reliable-FIFO model the paper assumes.
package modelcheck

import (
	"errors"
	"fmt"
	"slices"

	"dqmx/internal/chaos"
	"dqmx/internal/core"
	"dqmx/internal/membership"
	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
	"dqmx/internal/wire"
)

// Bound is the per-CS average message envelope asserted on fault-free
// terminal states, the paper's 3(K−1)..6(K−1) (chaos.MessageBounds derives
// it from a coterie assignment).
type Bound struct {
	Lo, Hi float64
}

// Config describes one exhaustive run.
type Config struct {
	// Algorithm builds the N site machines (the zero value is the
	// delay-optimal protocol over grid quorums).
	Algorithm core.Algorithm
	// N is the number of sites.
	N int
	// PerSite is how many CS executions each requester issues (default 1).
	PerSite int
	// Requesters limits which sites issue requests (nil = all N). Shrinking
	// the requester set is how larger-N configurations stay enumerable: the
	// remaining sites still arbitrate, so quorum traffic covers them.
	Requesters []mutex.SiteID
	// Crashes is the crash-choice budget: along any one run at most this
	// many sites fail. Keep it below the coterie's availability margin
	// (majority-3 tolerates 1) or blocked requesters are reported as
	// deadlocks — which, without a live quorum, they truly are.
	Crashes int
	// CrashSites limits crash victims (nil = any live site).
	CrashSites []mutex.SiteID
	// MaxStates caps the visited-state count; exceeding it aborts the run
	// with ErrStateBudget (0 = unlimited). It is the CI-time guard: size it
	// so the configuration is known to fit.
	MaxStates int
	// MaxDepth caps the choice-sequence length; deeper paths are truncated
	// and the Result is marked incomplete (0 = unbounded).
	MaxDepth int
	// DFS switches the search order from breadth-first (default; finds
	// minimal counterexamples) to depth-first (smaller frontier on soak-size
	// spaces).
	DFS bool
	// Invariants replaces the default invariant set (nil = Defaults()).
	Invariants []Invariant
	// Bound, when non-nil, additionally asserts the per-CS message envelope
	// on fault-free terminal states. The message and exit counters then
	// become part of the canonical state, so runs that differ only in cost
	// are explored separately — the state space grows accordingly.
	Bound *Bound
	// Handover, when non-nil, overlays an online membership switch
	// (internal/membership) on the exploration. N must equal
	// Handover.JointN(); sites present in the old configuration start on
	// their old req_sets, joining sites are born joint (mirroring the live
	// path, where grow() precedes the joint sweep). Two extra per-site
	// choices drive the switch: apply-joint installs a site's joint req_set
	// at any point, and apply-final — gated on every live site being joint
	// with its swap settled, the live settle barrier — installs the new
	// configuration's req_set on sites it retains. Departing sites keep
	// their joint req_sets, as the live drain does. The applies count as
	// protocol choices, so terminal states exist only after the switch
	// completes and the deadlock invariant asserts post-switch liveness.
	// Bound must be nil: handover traffic (withdrawals, joint requests)
	// legitimately exceeds the paper's fault-free envelope.
	Handover *membership.Handover
}

// ErrStateBudget reports that the state space outgrew Config.MaxStates.
var ErrStateBudget = errors.New("modelcheck: state budget exceeded")

// Result summarizes a completed exploration.
type Result struct {
	// States is the number of distinct canonical states visited.
	States int
	// Terminals counts distinct quiescent states (no deliver, request, or
	// exit choice enabled).
	Terminals int
	// Depth is the longest explored choice sequence.
	Depth int
	// Complete is false when MaxDepth truncated at least one path.
	Complete bool
	// Violation is the first invariant violation found, nil when the run is
	// clean. A violating run stops at the violation.
	Violation *Violation
}

// slot is the index of the directed from→to FIFO queue in State.chans, −1
// when there is no such channel. Detector channels have a negative from (see
// detectorFrom), so each survivor's failure notification travels alone and
// interleaves freely. The 2N·N slots run in the order of (from, to): the
// detector channels first, then the sites' own.
func (st *State) slot(from, to mutex.SiteID) int {
	n := mutex.SiteID(len(st.sites))
	f := from + n
	if from < 0 {
		f++
	}
	if from == -1 || f < 0 || f >= 2*n || to < 0 || to >= n {
		return -1
	}
	return int(f*n + to)
}

// chanAt is the channel whose queue is State.chans[k].
func (st *State) chanAt(k int) (from, to mutex.SiteID) {
	n := len(st.sites)
	f := k/n - n
	if f < 0 {
		f--
	}
	return mutex.SiteID(f), mutex.SiteID(k % n)
}

// detectorFrom is the synthetic origin of the failure notification delivered
// to survivors after victim crashes: one distinct channel per (victim,
// survivor) pair.
func detectorFrom(victim mutex.SiteID) mutex.SiteID { return -2 - victim }

// State is one node of the explored state space. Invariants read it through
// the accessor methods; all mutation happens inside the explorer.
type State struct {
	sites       []*core.Site
	chans       [][]mutex.Envelope // indexed by slot
	reqs        []int              // CS executions each site still has to issue
	crashed     []bool
	crashesLeft int

	// ledger is the run's conformance record (chaos.Ledger): the CS holder,
	// the message and exit counts, and each request wave with its
	// settled-before facts. The explorer reports a withdrawal (a release
	// sent while still waiting) only in handover runs, where a membership
	// swap pulls a request from departing arbiters: elsewhere withdrawals
	// only happen on §6 recovery, where the order invariant is waived anyway.
	ledger chaos.Ledger

	// Handover bookkeeping (nil without Config.Handover): h is the shared
	// immutable plan, member[i] is site i's progress through it — 0 on the
	// old req_set, 1 joint, 2 final.
	h      *membership.Handover
	member []uint8

	// Transition transients (not part of the canonical state): the site that
	// entered the CS during the last applied action, and the ledger's
	// verdicts on it. Violations abort the run, so they never need to
	// survive deduplication.
	entered mutex.SiteID
	found   []chaos.Violation
}

// N returns the number of sites.
func (st *State) N() int { return len(st.sites) }

// SiteAt returns site i's state machine (read-only for invariants).
func (st *State) SiteAt(i mutex.SiteID) *core.Site { return st.sites[i] }

// Crashed reports whether site i has crashed.
func (st *State) Crashed(i mutex.SiteID) bool { return st.crashed[i] }

// Faulty reports whether any site has crashed.
func (st *State) Faulty() bool {
	for _, c := range st.crashed {
		if c {
			return true
		}
	}
	return false
}

// Remaining returns site i's outstanding CS budget.
func (st *State) Remaining(i mutex.SiteID) int { return st.reqs[i] }

// Entered returns the site that acquired the CS during the transition that
// produced this state, -1 when none did.
func (st *State) Entered() mutex.SiteID { return st.entered }

// explorer carries the per-run configuration shared by all states.
type explorer struct {
	cfg        Config
	invariants []Invariant
	counters   bool // message counters are part of the canonical state
	requester  []bool
	crashable  []bool
}

func newExplorer(cfg Config) (*explorer, error) {
	if cfg.N < 1 {
		return nil, errors.New("modelcheck: Config.N must be positive")
	}
	if cfg.PerSite == 0 {
		cfg.PerSite = 1
	}
	ex := &explorer{
		cfg:       cfg,
		counters:  cfg.Bound != nil,
		requester: idSet(cfg.N, cfg.Requesters),
		crashable: idSet(cfg.N, cfg.CrashSites),
	}
	ex.invariants = cfg.Invariants
	if ex.invariants == nil {
		ex.invariants = Defaults()
	}
	if cfg.Bound != nil {
		ex.invariants = append(append([]Invariant(nil), ex.invariants...), BoundInvariant(*cfg.Bound))
	}
	if h := cfg.Handover; h != nil {
		if err := h.Validate(); err != nil {
			return nil, err
		}
		if cfg.N != h.JointN() {
			return nil, fmt.Errorf("modelcheck: Config.N = %d but the handover spans %d sites", cfg.N, h.JointN())
		}
		if cfg.Bound != nil {
			return nil, errors.New("modelcheck: Bound cannot be asserted across a handover")
		}
	}
	return ex, nil
}

func idSet(n int, ids []mutex.SiteID) []bool {
	set := make([]bool, n)
	if ids == nil {
		for i := range set {
			set[i] = true
		}
		return set
	}
	for _, id := range ids {
		set[id] = true
	}
	return set
}

// initial builds the start state: all sites idle, all channels empty.
func (ex *explorer) initial() (*State, error) {
	n := ex.cfg.N
	assign, err := ex.cfg.Algorithm.Assign(n)
	if err != nil {
		return nil, err
	}
	st := &State{
		sites:       make([]*core.Site, n),
		chans:       make([][]mutex.Envelope, 2*n*n),
		reqs:        make([]int, n),
		crashed:     make([]bool, n),
		crashesLeft: ex.cfg.Crashes,
		ledger:      chaos.NewLedger(n),
		entered:     -1,
	}
	for i := range st.sites {
		st.sites[i] = ex.cfg.Algorithm.NewSite(mutex.SiteID(i), assign)
		if ex.requester[i] {
			st.reqs[i] = ex.cfg.PerSite
		}
	}
	if h := ex.cfg.Handover; h != nil {
		st.h = h
		st.member = make([]uint8, n)
		for i, s := range st.sites {
			id := mutex.SiteID(i)
			if i < h.Old.N() {
				// An original member starts on its pure old-epoch req_set, at
				// the joint size its machine was built with (the size is part
				// of the canonical state).
				m := h.Old.Member(id)
				m.N = h.JointN()
				st.route(id, s.SetMembership(m))
			} else {
				// A joiner is born joint: the live grow() wires it before the
				// joint sweep, so it never runs a pure old- or new-epoch quorum.
				st.route(id, s.SetMembership(h.JointMember(id)))
				st.member[i] = 1
			}
		}
	}
	return st, nil
}

// clone copies a state. Crashed sites' machines are shared: they never step
// again, so their memory is immutable. Channel queues share their backing
// arrays: a queue is only ever appended to and resliced past its head, never
// written in place, and capping the copy's capacity at its length makes the
// copy's first append reallocate instead of writing where the original may
// append.
func (st *State) clone() *State {
	c := *st
	c.sites = slices.Clone(st.sites)
	c.chans = slices.Clone(st.chans)
	c.reqs = slices.Clone(st.reqs)
	c.crashed = slices.Clone(st.crashed)
	c.ledger = st.ledger.Clone()
	c.member = slices.Clone(st.member)
	c.entered, c.found = -1, nil
	for i, s := range st.sites {
		if !st.crashed[i] {
			c.sites[i] = s.CloneForCheck()
		}
	}
	for k, q := range st.chans {
		c.chans[k] = q[:len(q):len(q)]
	}
	return &c
}

// route applies a state-machine output: each envelope joins its FIFO
// channel unless the receiver has crashed. The ledger hears of every
// envelope; only those that join a channel travel.
func (st *State) route(origin mutex.SiteID, out mutex.Output) {
	if out.Entered {
		st.enter(origin)
	}
	for _, env := range out.Send {
		if st.h != nil && env.Kind() == mutex.KindRelease {
			st.ledger.Withdrew(env.From)
		}
		travels := !st.crashed[env.To]
		st.ledger.Sent(env.From, env.Kind(), travels)
		if travels {
			k := st.slot(env.From, env.To)
			st.chans[k] = append(st.chans[k], env)
		}
	}
}

func (st *State) enter(i mutex.SiteID) {
	st.entered = i
	st.found = append(st.found, st.ledger.Enter(i, nil)...)
}

// apply executes one action in place and returns a short description of what
// was delivered (for replay logs).
func (st *State) apply(a Action) (string, error) {
	st.entered, st.found = -1, nil
	switch a.Kind {
	case ActDeliver:
		k := st.slot(a.From, a.To)
		if k < 0 || len(st.chans[k]) == 0 {
			return "", fmt.Errorf("modelcheck: %v: channel empty", a)
		}
		env := st.chans[k][0]
		st.chans[k] = st.chans[k][1:]
		if fm, ok := env.Msg.(mutex.FailureMsg); ok {
			// The transport severs the dead peer's streams (PeerFailed) before
			// the notification reaches the protocol, so nothing from the victim
			// can be delivered to this site after it learns of the crash.
			st.chans[st.slot(fm.Failed, env.To)] = nil
		}
		st.route(env.To, st.sites[env.To].Deliver(env))
		if env.Kind() == mutex.KindRequest {
			st.ledger.Delivered(env.From)
		}
		return env.PayloadString(), nil
	case ActDrop:
		k := st.slot(a.From, a.To)
		if k < 0 || len(st.chans[k]) == 0 || a.From < 0 || !st.crashed[a.From] {
			return "", fmt.Errorf("modelcheck: %v: nothing droppable", a)
		}
		// The dead sender's stream tears down here: the whole remaining queue
		// is lost, never a gap in the middle — the reliable sublayer delivers
		// each (from, to) stream in sequence order, so a receiver can only ever
		// observe a prefix of a dead sender's messages.
		n := len(st.chans[k])
		st.chans[k] = nil
		return fmt.Sprintf("%d messages", n), nil
	case ActRequest:
		i := a.Site
		if st.reqs[i] <= 0 || st.crashed[i] {
			return "", fmt.Errorf("modelcheck: %v: no request budget", a)
		}
		st.reqs[i]--
		out := st.sites[i].Request()
		ts, _ := st.sites[i].RequestTimestamp()
		st.ledger.Request(i, ts)
		st.route(i, out)
		return "", nil
	case ActExit:
		i := a.Site
		if st.ledger.Holder() != i {
			return "", fmt.Errorf("modelcheck: %v: site not in CS", a)
		}
		st.found = append(st.found, st.ledger.Exit(i)...)
		st.route(i, st.sites[i].Exit())
		return "", nil
	case ActCrash:
		v := a.Site
		if st.crashed[v] || st.crashesLeft <= 0 {
			return "", fmt.Errorf("modelcheck: %v: not crashable", a)
		}
		st.crashed[v] = true
		st.crashesLeft--
		st.ledger.Fail(v) // a hold ends with the victim; §6 must re-grant
		for k := int(v); k < len(st.chans); k += len(st.sites) {
			// In-flight messages to the victim are lost; a lost request no
			// longer holds its sender's wave open.
			for _, env := range st.chans[k] {
				if env.Kind() == mutex.KindRequest {
					st.ledger.Delivered(env.From)
				}
			}
			st.chans[k] = nil
		}
		// Each survivor's local detector announces the crash independently:
		// one notification per survivor on its own channel.
		for w := range st.sites {
			if mutex.SiteID(w) == v || st.crashed[w] {
				continue
			}
			k := st.slot(detectorFrom(v), mutex.SiteID(w))
			st.chans[k] = append(st.chans[k], mutex.Envelope{
				From: detectorFrom(v), To: mutex.SiteID(w), Msg: mutex.FailureMsg{Failed: v},
			})
		}
		return "", nil
	case ActApplyJoint:
		i := a.Site
		if st.member == nil || st.crashed[i] || st.member[i] != 0 {
			return "", fmt.Errorf("modelcheck: %v: not applicable", a)
		}
		st.member[i] = 1
		st.route(i, st.sites[i].SetMembership(st.h.JointMember(i)))
		return "", nil
	case ActApplyFinal:
		i := a.Site
		if st.member == nil || st.crashed[i] || st.member[i] != 1 || int(i) >= st.h.New.N() {
			return "", fmt.Errorf("modelcheck: %v: not applicable", a)
		}
		st.member[i] = 2
		st.route(i, st.sites[i].SetMembership(st.h.New.Member(i)))
		return "", nil
	default:
		return "", fmt.Errorf("modelcheck: unknown action %v", a)
	}
}

// enabled returns the protocol choices (deliver/request/exit) and the crash
// choices separately: a state with no protocol choice is terminal even when
// crashes remain — crashing a quiescent system explores nothing the deadlock
// and bound invariants should excuse.
func (ex *explorer) enabled(st *State) (core, crash []Action) {
	if h := st.ledger.Holder(); h != -1 {
		core = append(core, Action{Kind: ActExit, Site: h})
	}
	for i, s := range st.sites {
		if !st.crashed[i] && st.reqs[i] > 0 && !s.Pending() && !s.InCS() {
			core = append(core, Action{Kind: ActRequest, Site: mutex.SiteID(i)})
		}
	}
	for k, q := range st.chans {
		if len(q) == 0 {
			continue
		}
		from, to := st.chanAt(k)
		core = append(core, Action{Kind: ActDeliver, From: from, To: to})
		if from >= 0 && st.crashed[from] {
			// The dead sender's retransmission half is gone: its stream can
			// tear down at any point, losing the rest of the channel.
			core = append(core, Action{Kind: ActDrop, From: from, To: to})
		}
	}
	if st.member != nil {
		// The handover's sweep steps. Joint applies interleave freely; final
		// applies wait for the settle barrier — every live site joint, no
		// swap still deferred behind a held CS — exactly the live
		// Reconfigure's settle barrier. They are core choices: a run is not terminal
		// until the switch has completed on every live site.
		barrier := true
		for i := range st.sites {
			if st.crashed[i] {
				continue
			}
			if st.member[i] == 0 || !st.sites[i].MembershipSettled() {
				barrier = false
				break
			}
		}
		for i := range st.sites {
			if st.crashed[i] {
				continue
			}
			switch {
			case st.member[i] == 0:
				core = append(core, Action{Kind: ActApplyJoint, Site: mutex.SiteID(i)})
			case st.member[i] == 1 && barrier && i < st.h.New.N():
				core = append(core, Action{Kind: ActApplyFinal, Site: mutex.SiteID(i)})
			}
		}
	}
	if st.crashesLeft > 0 && st.workRemains() {
		for v := range st.sites {
			if ex.crashable[v] && !st.crashed[v] {
				crash = append(crash, Action{Kind: ActCrash, Site: mutex.SiteID(v)})
			}
		}
	}
	return core, crash
}

// workRemains reports whether any live site still has CS work outstanding;
// crash choices are only offered while it does.
func (st *State) workRemains() bool {
	for i, s := range st.sites {
		if st.crashed[i] {
			continue
		}
		if st.reqs[i] > 0 || s.Pending() || s.InCS() {
			return true
		}
	}
	return false
}

// appendKey appends the state's deduplication key to b: the ledger's
// AppendCanonical, a fixed binary layout of the explorer's bookkeeping, each
// live site's AppendCanonical, and every non-empty channel as its slot and
// its messages' v1 payload bytes. All states of one run share N and the
// configuration, so the per-site lists need no length.
func (st *State) appendKey(b []byte, counters bool) []byte {
	b = st.ledger.AppendCanonical(b, counters)
	for _, r := range st.reqs {
		b = wire.AppendUint(b, uint64(r))
	}
	b = wire.AppendUint(b, uint64(st.crashesLeft))
	b = append(b, st.member...)
	for i, s := range st.sites {
		if st.crashed[i] {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		b = s.AppendCanonical(b)
	}
	for k, q := range st.chans {
		if len(q) == 0 {
			continue
		}
		b = wire.AppendUint(b, uint64(k))
		b = wire.AppendUint(b, uint64(len(q)))
		for _, env := range q {
			keyBody(&env.Body)
			var err error
			if b, err = wire.AppendPayload(b, &env); err != nil {
				// Every message a model-checked site sends has a v1 codec.
				panic(err)
			}
		}
	}
	return b
}

// keyBody clears the fields of an in-flight message that the explorer's
// state identity has always left out, as mutex.Body.String does: a reply's
// piggybacked transfer, a release's withdraw mark, and the holder stamp of an
// inquire or a transfer. Keying the withdraw marks too would add 748 states
// to handover-4to3's 37 014, each of which differs from a state this key
// visits only in such a field; keying the holder stamps adds none to any
// pinned space.
func keyBody(b *mutex.Body) {
	switch b.Kind {
	case mutex.BodyReply:
		b.Flag, b.Site2, b.TS2 = false, 0, timestamp.Timestamp{}
	case mutex.BodyRelease:
		b.Flag = false
	case mutex.BodyInquire, mutex.BodyTransfer:
		b.TS = timestamp.Timestamp{}
	}
}

// node is one frontier entry. After expansion the state is released; the
// parent chain keeps only the actions, which is all a counterexample needs.
type node struct {
	st     *State
	parent *node
	act    Action
	depth  int
}

func (n *node) trace() []Action {
	var rev []Action
	for cur := n; cur.parent != nil; cur = cur.parent {
		rev = append(rev, cur.act)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Run explores the configuration's full state space. A Violation stops the
// search and is returned inside the Result; Run itself errs only on
// configuration problems or a blown state budget.
func Run(cfg Config) (Result, error) {
	ex, err := newExplorer(cfg)
	if err != nil {
		return Result{}, err
	}
	init, err := ex.initial()
	if err != nil {
		return Result{}, err
	}
	res := Result{Complete: true}
	key := init.appendKey(nil, ex.counters)
	visited := map[string]struct{}{string(key): {}}
	frontier := []*node{{st: init, depth: 0}}
	for len(frontier) > 0 {
		var cur *node
		if cfg.DFS {
			cur = frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
		} else {
			cur = frontier[0]
			frontier = frontier[1:]
		}
		if cur.depth > res.Depth {
			res.Depth = cur.depth
		}
		coreActs, crashActs := ex.enabled(cur.st)
		if len(coreActs) == 0 {
			res.Terminals++
			for _, inv := range ex.invariants {
				if err := inv.terminal(cur.st); err != nil {
					res.States = len(visited)
					res.Violation = newViolation(inv.Name, err, cur.trace(), cur.st)
					return res, nil
				}
			}
		}
		if cfg.MaxDepth > 0 && cur.depth >= cfg.MaxDepth {
			res.Complete = false
			cur.st = nil
			continue
		}
		for _, a := range append(coreActs, crashActs...) {
			next := cur.st.clone()
			if _, err := next.apply(a); err != nil {
				return res, err
			}
			for _, inv := range ex.invariants {
				if ierr := inv.step(cur.st, a, next); ierr != nil {
					child := &node{st: next, parent: cur, act: a, depth: cur.depth + 1}
					res.States = len(visited)
					res.Violation = newViolation(inv.Name, ierr, child.trace(), next)
					return res, nil
				}
			}
			key = next.appendKey(key[:0], ex.counters)
			if _, seen := visited[string(key)]; seen {
				continue
			}
			visited[string(key)] = struct{}{}
			if cfg.MaxStates > 0 && len(visited) > cfg.MaxStates {
				res.States = len(visited)
				return res, fmt.Errorf("%w: more than %d states", ErrStateBudget, cfg.MaxStates)
			}
			frontier = append(frontier, &node{st: next, parent: cur, act: a, depth: cur.depth + 1})
		}
		cur.st = nil
	}
	res.States = len(visited)
	return res, nil
}
