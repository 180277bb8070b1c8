package modelcheck_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dqmx/internal/core"
	"dqmx/internal/harness"
	"dqmx/internal/modelcheck"
	"dqmx/internal/mutex"
)

// TestCounterexampleCorpus replays every trace under testdata/cex and checks
// the verdict recorded beside it. A file is '#' comments, one config line in
// dqmcheck's header form (crash-sites and handoff added, bound left out), the
// trace one Action.String per line, and the verdict: "clean", the
// invariant, the step it fired at and its message, or "not enabled at step
// k: <action>" when a fix keeps the trace from being a run at all (the
// message it delivers is never sent). A fix that turns a violation clean or
// disabled edits the verdict, so each known defect's status is pinned in
// tier-1.
func TestCounterexampleCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "cex", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no counterexample files under testdata/cex")
	}
	for _, file := range files {
		t.Run(strings.TrimSuffix(filepath.Base(file), ".txt"), func(t *testing.T) {
			cfg, trace, want := parseCex(t, file)
			v, log, err := modelcheck.Replay(cfg, trace)
			got := "clean"
			switch {
			case err != nil && strings.HasSuffix(err.Error(), "is not enabled"):
				got = fmt.Sprintf("not enabled at step %d: %v", len(log)+1, trace[len(log)])
			case err != nil:
				t.Fatalf("replay: %v\n%s", err, strings.Join(log, "\n"))
			case v != nil:
				got = fmt.Sprintf("%s at step %d: %s", v.Invariant, len(v.Trace), v.Msg)
			}
			if got != want {
				t.Errorf("verdict %q, recorded %q\n%s", got, want, strings.Join(log, "\n"))
			}
		})
	}
}

// parseCex reads one corpus file into a replayable configuration, its trace
// and its recorded verdict.
func parseCex(t *testing.T, file string) (modelcheck.Config, []modelcheck.Action, string) {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var (
		cfg     modelcheck.Config
		trace   []modelcheck.Action
		verdict string
		config  bool
	)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "config: "):
			cfg, config = parseConfig(t, strings.TrimPrefix(line, "config: ")), true
		case strings.HasPrefix(line, "verdict: "):
			verdict = strings.TrimPrefix(line, "verdict: ")
		default:
			a, err := parseAction(line)
			if err != nil {
				t.Fatalf("%s:%d: %v", file, i+1, err)
			}
			trace = append(trace, a)
		}
	}
	if !config || verdict == "" || len(trace) == 0 {
		t.Fatalf("%s: needs a config line, a trace and a verdict", file)
	}
	return cfg, trace, verdict
}

// parseConfig reads "<construction> n=.. per-site=.. requesters=..
// crashes=.. crash-sites=.. handoff=..". The corpus replays without the
// message bound, which dqmcheck asserts only on fault-free runs.
func parseConfig(t *testing.T, line string) modelcheck.Config {
	t.Helper()
	fields := strings.Fields(line)
	cons, err := harness.NewConstruction(fields[0])
	if err != nil {
		t.Fatal(err)
	}
	cfg := modelcheck.Config{Algorithm: core.Algorithm{Construction: cons}}
	for _, f := range fields[1:] {
		key, val, _ := strings.Cut(f, "=")
		switch key {
		case "n":
			cfg.N = atoi(t, val)
		case "per-site":
			cfg.PerSite = atoi(t, val)
		case "crashes":
			cfg.Crashes = atoi(t, val)
		case "requesters":
			cfg.Requesters = siteList(t, val)
		case "crash-sites":
			cfg.CrashSites = siteList(t, val)
		case "handoff":
			switch val {
			case "transfer":
			case "via-arbiter":
				cfg.Algorithm.Handoff = core.ViaArbiter
			default:
				t.Fatalf("unknown handoff %q", val)
			}
		default:
			t.Fatalf("unknown config key %q", key)
		}
	}
	return cfg
}

// siteList reads "all" (nil) or a comma-separated list of sites.
func siteList(t *testing.T, s string) []mutex.SiteID {
	if s == "all" {
		return nil
	}
	var ids []mutex.SiteID
	for _, part := range strings.Split(s, ",") {
		ids = append(ids, mutex.SiteID(atoi(t, part)))
	}
	return ids
}

func atoi(t *testing.T, s string) int {
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// parseAction inverts Action.String.
func parseAction(s string) (modelcheck.Action, error) {
	kinds := map[string]modelcheck.ActionKind{
		"deliver": modelcheck.ActDeliver, "drop": modelcheck.ActDrop,
		"request": modelcheck.ActRequest, "exit": modelcheck.ActExit, "crash": modelcheck.ActCrash,
		"apply-joint": modelcheck.ActApplyJoint, "apply-final": modelcheck.ActApplyFinal,
	}
	word, arg, _ := strings.Cut(s, " ")
	a := modelcheck.Action{Kind: kinds[word]}
	var err error
	switch a.Kind {
	case 0:
		return a, fmt.Errorf("unknown action %q", s)
	case modelcheck.ActDeliver, modelcheck.ActDrop:
		_, err = fmt.Sscanf(arg, "%d>%d", &a.From, &a.To)
	default:
		_, err = fmt.Sscanf(arg, "%d", &a.Site)
	}
	if err == nil && a.String() != s {
		err = fmt.Errorf("%q does not read back as itself (%q)", s, a.String())
	}
	return a, err
}
