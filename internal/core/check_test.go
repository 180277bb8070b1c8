package core

import (
	"bytes"
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
	"dqmx/internal/timestamp"
)

// TestCanonicalCoversEveryField keeps the promise that a new Site field
// cannot silently weaken the model checker: every field is either shown to
// reach AppendCanonical (changing it alone changes the bytes) or excluded
// with a reason, and no field is a map, whose copy would be shared.
func TestCanonicalCoversEveryField(t *testing.T) {
	excluded := map[string]string{
		"cons":        "construction config",
		"memberAvoid": "construction config, installed with memberStage, which is encoded",
		"handoff":     "construction config",
		"cases":       "statistics",
		"sendBuf":     "scratch",
	}
	perturb := map[string]func(s *Site){
		"id":            func(s *Site) { s.id = 2 },
		"n":             func(s *Site) { s.n = 4 },
		"clock":         func(s *Site) { s.clock.Tick() },
		"quorum":        func(s *Site) { s.quorum = coterie.Quorum{0, 2} },
		"nextQuorum":    func(s *Site) { s.nextQuorum = coterie.Quorum{} },
		"failedSites":   func(s *Site) { s.failedSites.add(70) },
		"memberStage":   func(s *Site) { s.memberStage = 1 },
		"state":         func(s *Site) { s.state = stateWaiting },
		"reqTS":         func(s *Site) { s.reqTS = ts(1, 0) },
		"replied":       func(s *Site) { s.replied.add(1) },
		"failed":        func(s *Site) { s.failed = true },
		"inqDeferred":   func(s *Site) { s.inqDeferred.add(1) },
		"tranStack":     func(s *Site) { s.tranStack = append(s.tranStack, transferInfo{1, ts(1, 2)}) },
		"pendTransfers": func(s *Site) { s.pendTransfers = append(s.pendTransfers, transferInfo{1, ts(1, 2)}) },
		"lock":          func(s *Site) { s.lock = ts(1, 2) },
		"queue":         func(s *Site) { s.queue.Push(ts(1, 2)) },
		"inquired":      func(s *Site) { s.inquired = true },
		"lastTransfer":  func(s *Site) { s.lastTransfer = ts(1, 2) },
		"lockVia":       func(s *Site) { s.lockVia = 1 },
		"refreshDead":   func(s *Site) { s.refreshDead = append(s.refreshDead, refreshClaim{ts(1, 2), 1}) },
		"earlyReleases": func(s *Site) {
			s.earlyReleases = append(s.earlyReleases, releaseMsg{ReqTS: ts(1, 2), Fwd: timestamp.None})
		},
	}
	base := mkSite(0, 0, 1).AppendCanonical(nil)
	typ := reflect.TypeOf(Site{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() == reflect.Map {
			t.Errorf("Site.%s is a map: a Site copy would share it", f.Name)
		}
		_, skip := excluded[f.Name]
		p, ok := perturb[f.Name]
		switch {
		case skip && ok:
			t.Errorf("Site.%s is both excluded and perturbed", f.Name)
		case skip:
		case !ok:
			t.Errorf("Site.%s is neither encoded by AppendCanonical (no perturbation here) nor excluded with a reason", f.Name)
		default:
			s := mkSite(0, 0, 1)
			p(s)
			if bytes.Equal(s.AppendCanonical(nil), base) {
				t.Errorf("changing Site.%s leaves AppendCanonical unchanged", f.Name)
			}
		}
		delete(excluded, f.Name)
		delete(perturb, f.Name)
	}
	for name := range excluded {
		t.Errorf("excluded field %s does not exist", name)
	}
	for name := range perturb {
		t.Errorf("perturbed field %s does not exist", name)
	}
}

// TestCloneIsIndependent walks seeded schedules of a majority-3 deployment —
// with one crash notification and one SetMembership — and at every step
// clones each live site, checks that the clone encodes as the original does,
// then drives the clone onward and checks that the original did not move.
// Every site first learns of a phantom crashed site 99, so its failed set
// spills past the first word and the clone's own spill is exercised too.
func TestCloneIsIndependent(t *testing.T) {
	for _, h := range []Handoff{Transfer, ViaArbiter} {
		var seen struct{ sets, parked, early, refresh bool }
		for seed := int64(1); seed <= 20; seed++ {
			sites, err := Algorithm{Construction: coterie.Majority{}, Handoff: h}.NewSites(3)
			if err != nil {
				t.Fatal(err)
			}
			w := &walk{chans: map[[2]mutex.SiteID][]mutex.Envelope{}, crashed: make([]bool, 3), budget: []int{4, 4, 4}}
			for _, s := range sites {
				w.sites = append(w.sites, s.(*Site))
				w.route(announce(s.(*Site), 99))
			}
			rng := rand.New(rand.NewSource(seed))
			crashAt, memberAt := rng.Intn(40), rng.Intn(40)
			for step := 0; ; step++ {
				for i, s := range w.sites {
					if w.crashed[i] {
						continue
					}
					seen.sets = seen.sets || s.replied.w0|s.inqDeferred.w0 != 0
					seen.parked = seen.parked || len(s.pendTransfers) > 0
					seen.early = seen.early || len(s.earlyReleases) > 0
					seen.refresh = seen.refresh || len(s.refreshDead) > 0
					w.checkClone(t, h, seed, step, s)
				}
				if !w.step(rng, step == crashAt, step == memberAt) {
					break
				}
			}
		}
		if h == Transfer && !(seen.sets && seen.parked && seen.early && seen.refresh) {
			t.Errorf("handoff %d: the walks never reached some state kind: %+v", h, seen)
		}
	}
}

// walk is a minimal FIFO fabric over core sites.
type walk struct {
	sites   []*Site
	chans   map[[2]mutex.SiteID][]mutex.Envelope
	crashed []bool
	budget  []int
}

func (w *walk) route(out mutex.Output) {
	pending := slices.Clone(out.Send)
	for len(pending) > 0 {
		env := pending[0]
		pending = pending[1:]
		switch {
		case w.crashed[env.To]:
		case env.To == env.From:
			pending = append(pending, w.sites[env.To].Deliver(env).Send...)
		default:
			k := [2]mutex.SiteID{env.From, env.To}
			w.chans[k] = append(w.chans[k], env)
		}
	}
}

func (w *walk) keys() [][2]mutex.SiteID {
	ks := make([][2]mutex.SiteID, 0, len(w.chans))
	for k, q := range w.chans {
		if len(q) > 0 {
			ks = append(ks, k)
		}
	}
	slices.SortFunc(ks, func(a, b [2]mutex.SiteID) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return ks
}

// step takes one random enabled action, or the crash of site 2 or site 0's
// switch to the quorum {0, 2} when asked to; false when nothing is enabled.
func (w *walk) step(rng *rand.Rand, crash, member bool) bool {
	switch {
	case crash && !w.crashed[2]:
		w.crashed[2] = true
		for k := range w.chans {
			if k[0] == 2 || k[1] == 2 {
				delete(w.chans, k)
			}
		}
		for i := range w.sites[:2] {
			k := [2]mutex.SiteID{-4, mutex.SiteID(i)}
			w.chans[k] = append(w.chans[k], mutex.Envelope{From: -4, To: mutex.SiteID(i), Msg: mutex.FailureMsg{Failed: 2}})
		}
		return true
	case member:
		w.route(w.sites[0].SetMembership(mutex.Membership{N: 3, Quorum: []mutex.SiteID{0, 2}, Stage: 1}))
		return true
	}
	var acts []func()
	for _, k := range w.keys() {
		acts = append(acts, func() {
			env := w.chans[k][0]
			w.chans[k] = w.chans[k][1:]
			w.route(w.sites[env.To].Deliver(env))
		})
	}
	for i, s := range w.sites {
		switch {
		case w.crashed[i]:
		case s.InCS():
			acts = append(acts, func() { w.route(s.Exit()) })
		case !s.Pending() && w.budget[i] > 0:
			acts = append(acts, func() { w.budget[i]--; w.route(s.Request()) })
		}
	}
	if len(acts) == 0 {
		return false
	}
	acts[rng.Intn(len(acts))]()
	return true
}

// checkClone clones s, compares encodings, then feeds the clone everything
// in flight to it, a crash of a site in s's spilled word, and its next
// request or exit, and checks that s itself is unchanged.
func (w *walk) checkClone(t *testing.T, h Handoff, seed int64, step int, s *Site) {
	t.Helper()
	before, dump := s.AppendCanonical(nil), s.DebugString()
	c := s.CloneForCheck()
	if !bytes.Equal(c.AppendCanonical(nil), before) {
		t.Fatalf("handoff %d seed %d step %d: clone of site %d encodes differently", h, seed, step, s.id)
	}
	for _, k := range w.keys() {
		if k[1] == s.id {
			for _, env := range w.chans[k] {
				c.Deliver(env)
			}
		}
	}
	announce(c, 70)
	if c.InCS() {
		c.Exit()
	}
	c.Request()
	if !bytes.Equal(s.AppendCanonical(nil), before) || s.DebugString() != dump {
		t.Fatalf("handoff %d seed %d step %d: stepping a clone changed site %d\nbefore %s\nafter  %s",
			h, seed, step, s.id, dump, s.DebugString())
	}
}
