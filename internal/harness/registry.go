package harness

import (
	"fmt"
	"strings"

	"dqmx/internal/core"
	"dqmx/internal/coterie"
	"dqmx/internal/lamport"
	"dqmx/internal/mutex"
	"dqmx/internal/raymond"
	"dqmx/internal/ricartagrawala"
	"dqmx/internal/singhal"
	"dqmx/internal/suzukikasami"
)

// This file is the single registry mapping protocol and quorum names to
// implementations. The public facade (dqmx.Options, dqmx.Protocols,
// dqmx.Quorums) and every cmd binary resolve names here, so there is
// exactly one list to extend when an algorithm or construction lands —
// and every unknown-name error enumerates the valid choices.

// ProtocolNames returns the canonical protocol names: the paper's
// delay-optimal algorithm first, then the six baselines it compares
// against.
func ProtocolNames() []string {
	return []string{
		"delay-optimal", "maekawa", "lamport", "ricart-agrawala",
		"singhal-dynamic", "suzuki-kasami", "raymond",
	}
}

// QuorumNames returns the canonical quorum construction names.
func QuorumNames() []string {
	return []string{
		"grid", "tree", "hqc", "grid-set", "rst", "wall",
		"majority", "fpp", "singleton",
	}
}

// NewConstruction resolves a quorum construction by name. The empty string
// defaults to the paper's grid quorums. Unknown names error with the full
// list of valid choices.
func NewConstruction(name string) (coterie.Construction, error) {
	switch name {
	case "", "grid", "maekawa-grid":
		return coterie.Grid{}, nil
	case "tree", "ae-tree":
		return coterie.Tree{}, nil
	case "hqc":
		return coterie.HQC{}, nil
	case "grid-set":
		return coterie.GridSet{}, nil
	case "rst":
		return coterie.RST{}, nil
	case "wall", "crumbling-wall":
		return coterie.Wall{}, nil
	case "majority":
		return coterie.Majority{}, nil
	case "fpp":
		return coterie.FPP{}, nil
	case "singleton":
		return coterie.Singleton{}, nil
	}
	return nil, fmt.Errorf("unknown quorum construction %q (valid: %s)",
		name, strings.Join(QuorumNames(), ", "))
}

// NewAlgorithm resolves a protocol by name over the given coterie (ignored
// by the non-quorum baselines). The empty string defaults to the paper's
// delay-optimal protocol. "maekawa" is the same machine with the hand-off
// routed through the arbiter, so disableRecovery turns off §6 fault
// tolerance for both. Unknown names error with the full list of valid
// choices.
func NewAlgorithm(protocol string, cons coterie.Construction, disableRecovery bool) (mutex.Algorithm, error) {
	switch protocol {
	case "", "delay-optimal":
		return core.Algorithm{Construction: cons, DisableRecovery: disableRecovery}, nil
	case "maekawa":
		return core.Algorithm{Construction: cons, DisableRecovery: disableRecovery, Handoff: core.ViaArbiter}, nil
	case "lamport":
		return lamport.Algorithm{}, nil
	case "ricart-agrawala":
		return ricartagrawala.Algorithm{}, nil
	case "singhal-dynamic":
		return singhal.Algorithm{}, nil
	case "suzuki-kasami":
		return suzukikasami.Algorithm{}, nil
	case "raymond":
		return raymond.Algorithm{}, nil
	}
	return nil, fmt.Errorf("unknown protocol %q (valid: %s)",
		protocol, strings.Join(ProtocolNames(), ", "))
}
