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
// runs. Invariants are pluggable (see Invariant) and mirror the chaos
// checker's conformance rules; a violation carries the exact choice sequence
// that reached it, replayable with Replay, plus a per-site state dump.
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

	"dqmx/internal/coterie"
	"dqmx/internal/membership"
	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
	"dqmx/internal/wire"
)

// Site is the contract a protocol state machine must satisfy to be model
// checked: the usual mutex driver surface plus the cloning, canonicalization,
// and diagnostic seams (core.Site implements all of them).
type Site interface {
	mutex.Site
	mutex.TimestampedSite
	// CloneForCheck copies the machine, sharing nothing mutable, so the
	// explorer can branch.
	CloneForCheck() mutex.Site
	// AppendCanonical appends an encoding of every behaviour-relevant field;
	// states with equal bytes must react identically to identical future
	// inputs.
	AppendCanonical(b []byte) []byte
	// DebugString renders the state for counterexample dumps.
	DebugString() string
}

// Bound is the per-CS average message envelope asserted on fault-free
// terminal states, the paper's 3(K−1)..6(K−1).
type Bound struct {
	Lo, Hi float64
}

// BoundsFor derives the envelope from a coterie assignment, mirroring
// chaos.MessageBounds (a test pins the two functions together): Kmin and
// Kmax are the smallest and largest quorum sizes.
func BoundsFor(a *coterie.Assignment) Bound {
	minK, maxK := 0, 0
	for _, q := range a.Quorums {
		if k := len(q); minK == 0 || k < minK {
			minK = k
		}
		if k := len(q); k > maxK {
			maxK = k
		}
	}
	if minK < 1 {
		return Bound{}
	}
	return Bound{Lo: 3 * float64(minK-1), Hi: 6 * float64(maxK-1)}
}

// Config describes one exhaustive run.
type Config struct {
	// Algorithm builds the N site machines; every site must implement the
	// package's Site interface.
	Algorithm mutex.Algorithm
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
	sites       []Site
	chans       [][]mutex.Envelope // indexed by slot
	inCS        mutex.SiteID       // -1 when the CS is free
	reqs        []int              // CS executions each site still has to issue
	crashed     []bool
	crashesLeft int
	sends       uint64 // network protocol messages sent (excludes failure notifications)
	exits       uint64 // completed CS executions

	// settled[j*n+i] records that site j's request wave was fully delivered
	// ("settled") before site i issued its current request — the premise of
	// the chaos checker's timestamp-order rule. Maintained by the explorer,
	// consulted by the order invariant, part of the canonical state.
	settled []bool

	// Handover bookkeeping (nil without Config.Handover): h is the shared
	// immutable plan, member[i] is site i's progress through it — 0 on the
	// old req_set, 1 joint, 2 final. withdrawn[i] marks site i's current
	// request wave as withdrawn (a release sent while still waiting — a
	// membership swap pulling the request from departing arbiters): the
	// freed arbiter may grant anyone, so the wave never counts as settled
	// again; the flag clears when the site issues its next request. It
	// mirrors the chaos checker's withdrawn flag and is only tracked in
	// handover runs — elsewhere withdrawals only happen on §6 recovery,
	// where the order invariant is exempt anyway.
	h         *membership.Handover
	member    []uint8
	withdrawn []bool

	// Transition transients (not part of the canonical state): the site that
	// entered the CS during the last applied action, and the pair of holders
	// of a double entry. Violations abort the run, so they never need to
	// survive deduplication.
	entered mutex.SiteID
	dup     *[2]mutex.SiteID
}

// N returns the number of sites.
func (st *State) N() int { return len(st.sites) }

// Holder returns the current CS holder, -1 when the CS is free.
func (st *State) Holder() mutex.SiteID { return st.inCS }

// SiteAt returns site i's state machine (read-only for invariants).
func (st *State) SiteAt(i mutex.SiteID) Site { return st.sites[i] }

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

// Sends returns the network protocol messages sent so far along this run
// (self-addressed envelopes and failure notifications excluded, matching the
// paper's accounting).
func (st *State) Sends() uint64 { return st.sends }

// Exits returns the CS executions completed so far along this run.
func (st *State) Exits() uint64 { return st.exits }

// Entered returns the site that acquired the CS during the transition that
// produced this state, -1 when none did.
func (st *State) Entered() mutex.SiteID { return st.entered }

// DoubleEntry returns both holders when the last transition produced a
// second simultaneous CS entry, or nil.
func (st *State) DoubleEntry() *[2]mutex.SiteID { return st.dup }

// SettledBefore reports whether site j's request wave had settled before
// site i issued its current request.
func (st *State) SettledBefore(j, i mutex.SiteID) bool {
	return st.settled[int(j)*len(st.sites)+int(i)]
}

// explorer carries the per-run configuration shared by all states.
type explorer struct {
	cfg        Config
	invariants []Invariant
	counters   bool // message counters are part of the canonical state
	requester  []bool
	crashable  []bool
}

func newExplorer(cfg Config) (*explorer, error) {
	if cfg.Algorithm == nil {
		return nil, errors.New("modelcheck: Config.Algorithm is required")
	}
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
	raw, err := ex.cfg.Algorithm.NewSites(ex.cfg.N)
	if err != nil {
		return nil, err
	}
	st := &State{
		sites:   make([]Site, len(raw)),
		chans:   make([][]mutex.Envelope, 2*len(raw)*len(raw)),
		inCS:    -1,
		reqs:    make([]int, len(raw)),
		crashed: make([]bool, len(raw)),
		settled: make([]bool, len(raw)*len(raw)),
		entered: -1,
	}
	st.crashesLeft = ex.cfg.Crashes
	for i, s := range raw {
		ms, ok := s.(Site)
		if !ok {
			return nil, fmt.Errorf("modelcheck: site %d (%T) does not implement the model-checking seams", i, s)
		}
		st.sites[i] = ms
		if ex.requester[i] {
			st.reqs[i] = ex.cfg.PerSite
		}
	}
	if h := ex.cfg.Handover; h != nil {
		st.h = h
		st.member = make([]uint8, len(raw))
		st.withdrawn = make([]bool, len(raw))
		oldN := h.Old.N()
		for i := range st.sites {
			id := mutex.SiteID(i)
			rec, ok := st.sites[i].(mutex.Reconfigurable)
			if !ok {
				return nil, fmt.Errorf("modelcheck: site %d (%T) is not reconfigurable", i, st.sites[i])
			}
			if i < oldN {
				// An original member starts on its pure old-epoch req_set.
				st.route(id, rec.SetMembership(h.JointN(),
					[]mutex.SiteID(h.Old.Coterie.Quorum(id)),
					stableAvoid(h.OldCons, oldN, id),
					uint64(membership.StableStage(h.Old.Epoch))))
			} else {
				// A joiner is born joint: the live grow() wires it before the
				// joint sweep, so it never runs a pure old- or new-epoch quorum.
				st.route(id, rec.SetMembership(h.JointN(),
					[]mutex.SiteID(h.JointQuorum(id)),
					jointAvoid(h, id),
					uint64(membership.JointStage(h.Old.Epoch))))
				st.member[i] = 1
			}
		}
	}
	return st, nil
}

// stableAvoid adapts a construction's §6 QuorumAvoiding for a stable phase
// of a handover run to the Reconfigurable hook shape; nil cons means no
// recovery (the site keeps its quorum on a crash — safety over progress).
func stableAvoid(cons coterie.Construction, n int, id mutex.SiteID) func(map[mutex.SiteID]bool) ([]mutex.SiteID, bool) {
	if cons == nil {
		return nil
	}
	return func(down map[mutex.SiteID]bool) ([]mutex.SiteID, bool) {
		q, err := cons.QuorumAvoiding(n, id, down)
		if err != nil {
			return nil, false
		}
		return q, true
	}
}

// jointAvoid adapts Handover.JointAvoiding the same way: a crash during the
// joint phase must rebuild onto a req_set that still embeds a quorum of each
// coterie.
func jointAvoid(h *membership.Handover, id mutex.SiteID) func(map[mutex.SiteID]bool) ([]mutex.SiteID, bool) {
	return func(down map[mutex.SiteID]bool) ([]mutex.SiteID, bool) {
		q, err := h.JointAvoiding(id, down)
		if err != nil {
			return nil, false
		}
		return q, true
	}
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
	c.settled = slices.Clone(st.settled)
	c.member = slices.Clone(st.member)
	c.withdrawn = slices.Clone(st.withdrawn)
	c.entered, c.dup = -1, nil
	for i, s := range st.sites {
		if !st.crashed[i] {
			c.sites[i] = s.CloneForCheck().(Site)
		}
	}
	for k, q := range st.chans {
		c.chans[k] = q[:len(q):len(q)]
	}
	return &c
}

// route applies a state-machine output: self-addressed envelopes are
// delivered synchronously (as every driver does), remote ones join their
// FIFO channel unless the receiver has crashed.
func (st *State) route(origin mutex.SiteID, out mutex.Output) {
	if out.Entered {
		st.noteEntered(origin)
	}
	// An Output is valid only until the next call on its site, and the
	// self-delivery below re-enters that site: queue a copy.
	pending := append([]mutex.Envelope(nil), out.Send...)
	for len(pending) > 0 {
		env := pending[0]
		pending = pending[1:]
		if env.From >= 0 && env.Kind() == mutex.KindRequest {
			// A (re)opened request wave: the sender's settled-before facts
			// lapse, mirroring the chaos checker resetting its settle point.
			st.clearSettledRow(env.From)
		}
		if st.withdrawn != nil && env.From >= 0 && env.Kind() == mutex.KindRelease && st.sites[env.From].Pending() {
			// A release sent while still waiting is a withdrawal: the freed
			// arbiter may grant anyone, so the sender's order guarantee is
			// void for this wave. Sticky (not just a row clear) because a swap
			// onto a subset of the current req_set re-sends nothing, so the
			// wave would otherwise read as settled again at the next request.
			st.withdrawn[env.From] = true
			st.clearSettledRow(env.From)
		}
		if env.To == env.From {
			next := st.sites[env.To].Deliver(env)
			if next.Entered {
				st.noteEntered(env.To)
			}
			pending = append(pending, next.Send...)
			continue
		}
		if st.crashed[env.To] {
			continue // the receiver is dead; the message is lost
		}
		k := st.slot(env.From, env.To)
		st.chans[k] = append(st.chans[k], env)
		if env.Kind() != mutex.KindFailure {
			st.sends++
		}
	}
}

func (st *State) noteEntered(i mutex.SiteID) {
	if st.inCS != -1 && st.inCS != i {
		prev := st.inCS
		st.dup = &[2]mutex.SiteID{prev, i}
	}
	st.inCS = i
	st.entered = i
	st.clearSettledRow(i)
	st.clearSettledCol(i)
}

func (st *State) clearSettledRow(j mutex.SiteID) {
	n := len(st.sites)
	for i := 0; i < n; i++ {
		st.settled[int(j)*n+i] = false
	}
}

func (st *State) clearSettledCol(i mutex.SiteID) {
	n := len(st.sites)
	for j := 0; j < n; j++ {
		st.settled[j*n+int(i)] = false
	}
}

// waveSettled reports whether site j's current request wave has been fully
// delivered: j is waiting, the wave was not withdrawn from any arbiter, and
// no request envelope from j is in flight.
func (st *State) waveSettled(j mutex.SiteID) bool {
	if !st.sites[j].Pending() {
		return false
	}
	if st.withdrawn != nil && st.withdrawn[j] {
		return false
	}
	from := st.slot(j, 0)
	for _, q := range st.chans[from : from+len(st.sites)] {
		for _, env := range q {
			if env.Kind() == mutex.KindRequest {
				return false
			}
		}
	}
	return true
}

// apply executes one action in place and returns a short description of what
// was delivered (for replay logs).
func (st *State) apply(a Action) (string, error) {
	st.entered = -1
	st.dup = nil
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
		if st.withdrawn != nil {
			st.withdrawn[i] = false // a fresh wave starts unwithdrawn
		}
		st.clearSettledRow(i)
		st.clearSettledCol(i)
		st.route(i, st.sites[i].Request())
		// Every waiting site whose wave had already settled when this
		// request was born is now "settled before issued" relative to it.
		n := len(st.sites)
		for j := 0; j < n; j++ {
			if mutex.SiteID(j) == i || st.crashed[j] {
				continue
			}
			if st.waveSettled(mutex.SiteID(j)) {
				st.settled[j*n+int(i)] = true
			}
		}
		return "", nil
	case ActExit:
		i := a.Site
		if st.inCS != i {
			return "", fmt.Errorf("modelcheck: %v: site not in CS", a)
		}
		st.inCS = -1
		st.exits++
		st.route(i, st.sites[i].Exit())
		return "", nil
	case ActCrash:
		v := a.Site
		if st.crashed[v] || st.crashesLeft <= 0 {
			return "", fmt.Errorf("modelcheck: %v: not crashable", a)
		}
		st.crashed[v] = true
		st.crashesLeft--
		if st.inCS == v {
			st.inCS = -1 // died inside the CS; §6 must re-grant
		}
		st.clearSettledRow(v)
		st.clearSettledCol(v)
		for k := int(v); k < len(st.chans); k += len(st.sites) {
			st.chans[k] = nil // in-flight messages to the victim are lost
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
		st.route(i, st.sites[i].(mutex.Reconfigurable).SetMembership(st.h.JointN(),
			[]mutex.SiteID(st.h.JointQuorum(i)),
			jointAvoid(st.h, i),
			uint64(membership.JointStage(st.h.Old.Epoch))))
		return "", nil
	case ActApplyFinal:
		i := a.Site
		if st.member == nil || st.crashed[i] || st.member[i] != 1 || int(i) >= st.h.New.N() {
			return "", fmt.Errorf("modelcheck: %v: not applicable", a)
		}
		st.member[i] = 2
		st.route(i, st.sites[i].(mutex.Reconfigurable).SetMembership(st.h.New.N(),
			[]mutex.SiteID(st.h.New.Coterie.Quorum(i)),
			stableAvoid(st.h.NewCons, st.h.New.N(), i),
			uint64(membership.StableStage(st.h.New.Epoch))))
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
	if st.inCS != -1 {
		core = append(core, Action{Kind: ActExit, Site: st.inCS})
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
			if st.member[i] == 0 || !st.sites[i].(mutex.Reconfigurable).MembershipSettled() {
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

// appendKey appends the state's deduplication key to b: a fixed binary
// layout of the explorer's bookkeeping, each live site's AppendCanonical,
// and every non-empty channel as its slot and its messages' v1 payload
// bytes. All states of one run share N and the configuration, so the
// per-site lists need no length.
func (st *State) appendKey(b []byte, counters bool) []byte {
	b = wire.AppendSite(b, st.inCS)
	for _, r := range st.reqs {
		b = wire.AppendUint(b, uint64(r))
	}
	b = wire.AppendUint(b, uint64(st.crashesLeft))
	if counters {
		b = wire.AppendUint(b, st.sends)
		b = wire.AppendUint(b, st.exits)
	}
	for i := range st.member {
		b = append(b, st.member[i])
		b = wire.AppendBool(b, st.withdrawn[i])
	}
	for _, s := range st.settled {
		b = wire.AppendBool(b, s)
	}
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
// inquire or a transfer. Keying them too would add 792 states to
// handover-4to3 (withdraw marks) and 6 to majority-3+crash (transfer
// stamps), each of which differs from a state this key visits only in such
// a field.
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
				if err := inv.Terminal(cur.st); err != nil {
					res.States = len(visited)
					res.Violation = newViolation(inv.Name(), err, cur.trace(), cur.st)
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
				if ierr := inv.Step(cur.st, a, next); ierr != nil {
					child := &node{st: next, parent: cur, act: a, depth: cur.depth + 1}
					res.States = len(visited)
					res.Violation = newViolation(inv.Name(), ierr, child.trace(), next)
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
