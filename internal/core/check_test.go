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

// TestCanonicalCoversEveryField keeps the promise that a new field cannot
// silently weaken the model checker: every field of the Site and of its two
// halves is either shown to reach AppendCanonical (changing it alone changes
// the bytes) or excluded with a reason, and no field is a map, whose copy
// would be shared.
func TestCanonicalCoversEveryField(t *testing.T) {
	excluded := map[string]string{
		"Site.cons":        "construction config",
		"Site.memberAvoid": "construction config, installed with memberStage, which is encoded",
		"Site.req":         "the requester half, walked field by field below",
		"Site.arb":         "the arbiter half, walked field by field below",
		"Site.sendBuf":     "scratch",
		"arbiter.cases":    "statistics",
		"arbiter.handoff":  "construction config",
	}
	perturb := map[string]func(s *Site){
		"Site.id":          func(s *Site) { s.id = 2 },
		"Site.n":           func(s *Site) { s.n = 4 },
		"Site.clock":       func(s *Site) { s.clock.Tick() },
		"Site.failedSites": func(s *Site) { s.failedSites.add(70) },
		"Site.memberStage": func(s *Site) { s.memberStage = 1 },

		"requester.quorum":        func(s *Site) { s.req.quorum = coterie.Quorum{0, 2} },
		"requester.nextQuorum":    func(s *Site) { s.req.nextQuorum = coterie.Quorum{} },
		"requester.state":         func(s *Site) { s.req.state = stateWaiting },
		"requester.reqTS":         func(s *Site) { s.req.reqTS = ts(1, 0) },
		"requester.replied":       func(s *Site) { s.req.replied.add(1) },
		"requester.failed":        func(s *Site) { s.req.failed = true },
		"requester.inqDeferred":   func(s *Site) { s.req.inqDeferred.add(1) },
		"requester.tranStack":     func(s *Site) { s.req.tranStack = append(s.req.tranStack, transferInfo{1, ts(1, 2)}) },
		"requester.pendTransfers": func(s *Site) { s.req.pendTransfers = append(s.req.pendTransfers, transferInfo{1, ts(1, 2)}) },

		"arbiter.lock":         func(s *Site) { s.arb.lock = ts(1, 2) },
		"arbiter.queue":        func(s *Site) { s.arb.queue.Push(ts(1, 2)) },
		"arbiter.inquired":     func(s *Site) { s.arb.inquired = true },
		"arbiter.lastTransfer": func(s *Site) { s.arb.lastTransfer = ts(1, 2) },
		"arbiter.lockVia":      func(s *Site) { s.arb.lockVia = 1 },
		"arbiter.refreshDead":  func(s *Site) { s.arb.refreshDead = append(s.arb.refreshDead, refreshClaim{ts(1, 2), 1}) },
		"arbiter.earlyReleases": func(s *Site) {
			s.arb.earlyReleases = append(s.arb.earlyReleases, releaseMsg{ReqTS: ts(1, 2), Fwd: timestamp.None})
		},
	}
	base := mkSite(0, 0, 1).AppendCanonical(nil)
	for _, typ := range []reflect.Type{reflect.TypeOf(Site{}), reflect.TypeOf(requester{}), reflect.TypeOf(arbiter{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name := typ.Name() + "." + f.Name
			if f.Type.Kind() == reflect.Map {
				t.Errorf("%s is a map: a Site copy would share it", name)
			}
			_, skip := excluded[name]
			p, ok := perturb[name]
			switch {
			case skip && ok:
				t.Errorf("%s is both excluded and perturbed", name)
			case skip:
			case !ok:
				t.Errorf("%s is neither encoded by AppendCanonical (no perturbation here) nor excluded with a reason", name)
			default:
				s := mkSite(0, 0, 1)
				p(s)
				if bytes.Equal(s.AppendCanonical(nil), base) {
					t.Errorf("changing %s leaves AppendCanonical unchanged", name)
				}
			}
			delete(excluded, name)
			delete(perturb, name)
		}
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
		// Every set and slice CloneForCheck copies must be non-empty at some
		// clone, so a missing copy shows as a clone that moves its original.
		var seen struct {
			failedSites, replied, inqDeferred, tranStack, pendTransfers bool
			queue, refreshDead, earlyReleases                           bool
		}
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
					seen.failedSites = seen.failedSites || len(s.failedSites.more) > 0
					seen.replied = seen.replied || s.req.replied.w0 != 0
					seen.inqDeferred = seen.inqDeferred || s.req.inqDeferred.w0 != 0
					seen.tranStack = seen.tranStack || len(s.req.tranStack) > 0
					seen.pendTransfers = seen.pendTransfers || len(s.req.pendTransfers) > 0
					seen.queue = seen.queue || s.arb.queue.Len() > 0
					seen.refreshDead = seen.refreshDead || len(s.arb.refreshDead) > 0
					seen.earlyReleases = seen.earlyReleases || len(s.arb.earlyReleases) > 0
					w.checkClone(t, h, seed, step, s)
				}
				if !w.step(rng, step == crashAt, step == memberAt) {
					break
				}
			}
		}
		all := seen.failedSites && seen.replied && seen.inqDeferred && seen.tranStack && seen.pendTransfers &&
			seen.queue && seen.refreshDead && seen.earlyReleases
		if h == Transfer && !all {
			t.Errorf("handoff %d: the walks never reached some state kind: %+v", h, seen)
		}
	}
}

// TestCloneCopiesSpilledSets: the requester's sets spill past their first
// word only at site ids of 64 and up, which the majority-3 walks never reach;
// a clone must copy the spill all the same.
func TestCloneCopiesSpilledSets(t *testing.T) {
	s := mkSite(0, 0, 70)
	s.req.replied.add(70)
	s.req.inqDeferred.add(70)
	c := s.CloneForCheck()
	c.req.replied.remove(70)
	c.req.inqDeferred.remove(70)
	if !s.req.replied.has(70) || !s.req.inqDeferred.has(70) {
		t.Fatalf("editing a clone's spilled sets changed the original: %s", s.DebugString())
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
	for _, env := range out.Send {
		if !w.crashed[env.To] {
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
