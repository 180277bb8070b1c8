package modelcheck

import (
	"fmt"
	"slices"
	"strings"

	"dqmx/internal/mutex"
)

// ActionKind enumerates the explorer's nondeterministic choices.
type ActionKind int8

const (
	// ActDeliver delivers the head of the From→To channel.
	ActDeliver ActionKind = iota + 1
	// ActRequest lets Site issue its next CS request.
	ActRequest
	// ActExit lets Site (the current holder) leave the CS.
	ActExit
	// ActCrash fails Site through the §6 path.
	ActCrash
	// ActDrop severs the From→To channel, losing every remaining in-flight
	// message on it. Only enabled when From has crashed: the dead sender's
	// half of the reliable-delivery sublayer is gone, so its stream delivers
	// some prefix and loses the suffix — the explorer branches over every cut
	// point by interleaving deliveries with one final drop.
	ActDrop
	// ActApplyJoint installs the handover's joint req_set on Site — one step
	// of the joint sweep, interleaving freely with protocol traffic (only in
	// Config.Handover runs).
	ActApplyJoint
	// ActApplyFinal installs the new configuration's req_set on Site. Gated
	// on the settle barrier: every live site must be joint and settled first.
	ActApplyFinal
)

// Action is one choice of a run: a counterexample trace is the exact
// sequence of Actions that reaches the violating state from the initial one.
type Action struct {
	Kind     ActionKind
	From, To mutex.SiteID // deliver: the channel
	Site     mutex.SiteID // request / exit / crash: the acting site
}

func (a Action) String() string {
	switch a.Kind {
	case ActDeliver:
		return fmt.Sprintf("deliver %d>%d", a.From, a.To)
	case ActRequest:
		return fmt.Sprintf("request %d", a.Site)
	case ActExit:
		return fmt.Sprintf("exit %d", a.Site)
	case ActCrash:
		return fmt.Sprintf("crash %d", a.Site)
	case ActDrop:
		return fmt.Sprintf("drop %d>%d", a.From, a.To)
	case ActApplyJoint:
		return fmt.Sprintf("apply-joint %d", a.Site)
	case ActApplyFinal:
		return fmt.Sprintf("apply-final %d", a.Site)
	default:
		return fmt.Sprintf("action(%d)", a.Kind)
	}
}

// Violation is one invariant breach: which invariant fired, why, the minimal
// choice sequence that reproduces it (minimal in the BFS search order), and
// a per-site dump of the violating state.
type Violation struct {
	Invariant string
	Msg       string
	Trace     []Action
	Dump      string
}

func newViolation(invariant string, err error, trace []Action, st *State) *Violation {
	return &Violation{Invariant: invariant, Msg: err.Error(), Trace: trace, Dump: dumpState(st)}
}

// String renders the violation as a replayable report.
func (v *Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "invariant %q violated: %s\n", v.Invariant, v.Msg)
	fmt.Fprintf(&b, "counterexample (%d choices):\n", len(v.Trace))
	for i, a := range v.Trace {
		fmt.Fprintf(&b, "  %3d. %v\n", i+1, a)
	}
	b.WriteString("state:\n")
	b.WriteString(v.Dump)
	return b.String()
}

// dumpState renders the whole system state: the ledger, per-site budgets
// and machine dumps, and every in-flight message.
func dumpState(st *State) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  crashesLeft=%d %v\n", st.crashesLeft, &st.ledger)
	if st.member != nil {
		fmt.Fprintf(&b, "  handover: member=%v\n", st.member)
	}
	for i, s := range st.sites {
		mark := " "
		if st.crashed[i] {
			mark = "†"
		}
		fmt.Fprintf(&b, "  %s[reqs=%d] %s\n", mark, st.reqs[i], s.DebugString())
	}
	for k, q := range st.chans {
		from, to := st.chanAt(k)
		for _, env := range q {
			fmt.Fprintf(&b, "  wire %d>%d: %s\n", from, to, env.PayloadString())
		}
	}
	return b.String()
}

// Replay re-executes a recorded choice sequence against a fresh initial
// state, running the same invariants, and returns the violation it
// reproduces (nil when the trace runs clean), a per-step log, and an error
// when the trace does not fit the configuration: a step the explorer would
// not offer in the state it meets (a final apply before the settle barrier,
// a request from a site with none left) is refused, not applied. Terminal
// invariants are checked when the final state is quiescent.
func Replay(cfg Config, trace []Action) (*Violation, []string, error) {
	ex, err := newExplorer(cfg)
	if err != nil {
		return nil, nil, err
	}
	st, err := ex.initial()
	if err != nil {
		return nil, nil, err
	}
	log := make([]string, 0, len(trace))
	for i, a := range trace {
		if core, crash := ex.enabled(st); !slices.Contains(core, a) && !slices.Contains(crash, a) {
			return nil, log, fmt.Errorf("step %d: %v is not enabled", i+1, a)
		}
		pre := st.clone()
		detail, err := st.apply(a)
		if err != nil {
			return nil, log, fmt.Errorf("step %d: %w", i+1, err)
		}
		line := fmt.Sprintf("%3d. %v", i+1, a)
		if detail != "" {
			line += " " + detail
		}
		if st.entered != -1 {
			line += fmt.Sprintf(" → site %d enters CS", st.entered)
		}
		log = append(log, line)
		for _, inv := range ex.invariants {
			if ierr := inv.Step(pre, a, st); ierr != nil {
				return newViolation(inv.Name(), ierr, trace[:i+1], st), log, nil
			}
		}
	}
	if coreActs, _ := ex.enabled(st); len(coreActs) == 0 {
		for _, inv := range ex.invariants {
			if ierr := inv.Terminal(st); ierr != nil {
				return newViolation(inv.Name(), ierr, trace, st), log, nil
			}
		}
	}
	return nil, log, nil
}
