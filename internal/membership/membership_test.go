package membership

import (
	"math/rand"
	"slices"
	"testing"

	"dqmx/internal/coterie"
	"dqmx/internal/mutex"
)

func TestStageOrdering(t *testing.T) {
	// stable(E) < joint(E→E+1) < stable(E+1), for every E.
	for _, e := range []Epoch{0, 1, 2, 7, 1 << 30} {
		s, j, next := StableStage(e), JointStage(e), StableStage(e+1)
		if !(s < j && j < next) {
			t.Fatalf("epoch %d: stages %d, %d, %d not strictly ordered", e, s, j, next)
		}
		if s.Joint() || !j.Joint() {
			t.Fatalf("epoch %d: Joint() wrong on %v / %v", e, s, j)
		}
		if s.Epoch() != e || j.Epoch() != e {
			t.Fatalf("epoch %d: Epoch() gave %d / %d", e, s.Epoch(), j.Epoch())
		}
	}
	if got := StableStage(3).String(); got != "stable(3)" {
		t.Fatalf("String() = %q", got)
	}
	if got := JointStage(3).String(); got != "joint(3→4)" {
		t.Fatalf("String() = %q", got)
	}
	// The zero Stage is stable epoch 0 — what un-stamped envelopes carry.
	var zero Stage
	if zero.Joint() || zero.Epoch() != 0 {
		t.Fatalf("zero stage = %v, want stable(0)", zero)
	}
}

func TestNewConfigAndValidate(t *testing.T) {
	cfg, err := NewConfig(2, coterie.Majority{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Epoch != 2 || cfg.N() != 5 || cfg.Construction != (coterie.Majority{}) {
		t.Fatalf("config = %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	// Broken shapes must be caught before any live site is touched.
	if err := (Config{Epoch: 1}).Validate(); err == nil {
		t.Fatal("config without coterie validated")
	}
	bad := cfg
	bad.Coterie = &coterie.Assignment{N: 5, Quorums: cfg.Coterie.Quorums[:4]}
	if err := bad.Validate(); err == nil {
		t.Fatal("config whose coterie misses a site validated")
	}
}

func TestPlanHandoverRejectsEpochGap(t *testing.T) {
	old, err := NewConfig(0, coterie.Majority{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	skip, err := NewConfig(2, coterie.Majority{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlanHandover(old, skip); err == nil {
		t.Fatal("handover skipping an epoch planned")
	}
	same, err := NewConfig(0, coterie.Majority{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlanHandover(old, same); err == nil {
		t.Fatal("handover with unchanged epoch planned")
	}
}

// TestJointIntersectionProperty is the randomized safety check behind the
// handover: over random (construction, size) pairs, every joint quorum must
// intersect every old quorum, every new quorum, and every other joint
// quorum, and must embed one full quorum of each coterie. These are exactly
// the properties the package comment's safety argument needs.
func TestJointIntersectionProperty(t *testing.T) {
	cons := []coterie.Construction{coterie.Grid{}, coterie.Tree{}, coterie.Majority{}}
	rng := rand.New(rand.NewSource(991))
	trials := 0
	for trials < 60 {
		oldC, newC := cons[rng.Intn(len(cons))], cons[rng.Intn(len(cons))]
		oldN, newN := 2+rng.Intn(11), 2+rng.Intn(11)
		old, err := NewConfig(0, oldC, oldN)
		if err != nil {
			continue // construction rejects this n; pick again
		}
		next, err := NewConfig(1, newC, newN)
		if err != nil {
			continue
		}
		trials++
		h, err := PlanHandover(old, next)
		if err != nil {
			t.Fatalf("%s(%d)→%s(%d): %v", oldC.Name(), oldN, newC.Name(), newN, err)
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("%s(%d)→%s(%d): %v", oldC.Name(), oldN, newC.Name(), newN, err)
		}
		if h.JointN() != max(oldN, newN) {
			t.Fatalf("%s(%d)→%s(%d): joint over %d sites", oldC.Name(), oldN, newC.Name(), newN, h.JointN())
		}
		for i := 0; i < h.JointN(); i++ {
			jq := h.JointQuorum(mutex.SiteID(i))
			// Embedding: the joint req_set contains one full quorum of each
			// coterie — a strictly stronger fact than pairwise intersection.
			oq := old.Coterie.Quorum(foldSite(mutex.SiteID(i), oldN))
			nq := next.Coterie.Quorum(foldSite(mutex.SiteID(i), newN))
			if !oq.SubsetOf(jq) {
				t.Fatalf("%s(%d)→%s(%d): joint quorum of %d %v lacks old quorum %v",
					oldC.Name(), oldN, newC.Name(), newN, i, jq, oq)
			}
			if !nq.SubsetOf(jq) {
				t.Fatalf("%s(%d)→%s(%d): joint quorum of %d %v lacks new quorum %v",
					oldC.Name(), oldN, newC.Name(), newN, i, jq, nq)
			}
			// Pairwise joint-joint intersection (Validate covers joint-old
			// and joint-new).
			for k := 0; k < i; k++ {
				if !jq.Intersects(h.JointQuorum(mutex.SiteID(k))) {
					t.Fatalf("%s(%d)→%s(%d): joint quorums of %d and %d disjoint",
						oldC.Name(), oldN, newC.Name(), newN, i, k)
				}
			}
		}
	}
}

// TestJointAvoiding: a crash mid-handover rebuilds joint req_sets that skip
// the dead site yet still intersect both coteries' surviving quorums.
func TestJointAvoiding(t *testing.T) {
	old, err := NewConfig(0, coterie.Majority{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	next, err := NewConfig(1, coterie.Majority{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	h, err := PlanHandover(old, next)
	if err != nil {
		t.Fatal(err)
	}

	// A side without a construction: recovery must refuse rather than guess.
	bare := *h
	bare.Old.Construction = nil
	if _, err := bare.JointAvoiding(0, map[mutex.SiteID]bool{1: true}); err == nil {
		t.Fatal("JointAvoiding without constructions succeeded")
	}

	down := map[mutex.SiteID]bool{2: true}
	for i := 0; i < h.JointN(); i++ {
		q, err := h.JointAvoiding(mutex.SiteID(i), down)
		if err != nil {
			t.Fatalf("site %d: %v", i, err)
		}
		if q.Contains(2) {
			t.Fatalf("site %d: rebuilt quorum %v contains the dead site", i, q)
		}
		// The rebuilt quorum must intersect every quorum either coterie can
		// still grant — the §6 guarantee, extended across the handover.
		for o, oq := range old.Coterie.Quorums {
			if !q.Intersects(oq) {
				t.Fatalf("site %d: rebuilt %v misses old quorum of %d %v", i, q, o, oq)
			}
		}
		for n, nq := range next.Coterie.Quorums {
			if !q.Intersects(nq) {
				t.Fatalf("site %d: rebuilt %v misses new quorum of %d %v", i, q, n, nq)
			}
		}
	}

	// Majority of 5 tolerates two crashes, not three.
	heavy := map[mutex.SiteID]bool{0: true, 1: true, 2: true}
	if _, err := h.JointAvoiding(4, heavy); err == nil {
		t.Fatal("JointAvoiding with a dead old-majority succeeded")
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestMemberValues pins what the plan hands each site: Config.Member for
// the two stable phases and Handover.JointMember for the joint one — the
// size, req_set, stage, and the §6 avoiding rule's answer with one site
// down — for every site of three handovers.
func TestMemberValues(t *testing.T) {
	type ids = []mutex.SiteID
	type phase struct {
		n             int
		stage         uint64
		quorum, avoid []ids // per site; avoid is the rebuild around down
	}
	for _, tc := range []struct {
		name             string
		oldC, newC       coterie.Construction
		oldN, newN       int
		down             mutex.SiteID
		old, joint, next phase
	}{
		{
			name: "majority-3→4", oldC: coterie.Majority{}, newC: coterie.Majority{}, oldN: 3, newN: 4, down: 1,
			old: phase{n: 3, stage: 0,
				quorum: []ids{{0, 1}, {1, 2}, {0, 2}},
				avoid:  []ids{{0, 2}, {0, 2}, {0, 2}}},
			joint: phase{n: 4, stage: 1,
				quorum: []ids{{0, 1, 2}, {1, 2, 3}, {0, 2, 3}, {0, 1, 3}},
				avoid:  []ids{{0, 2, 3}, {0, 2, 3}, {0, 2, 3}, {0, 2, 3}}},
			next: phase{n: 4, stage: 2,
				quorum: []ids{{0, 1, 2}, {1, 2, 3}, {0, 2, 3}, {0, 1, 3}},
				avoid:  []ids{{0, 2, 3}, {0, 2, 3}, {0, 2, 3}, {0, 2, 3}}},
		},
		{
			name: "majority-4→3", oldC: coterie.Majority{}, newC: coterie.Majority{}, oldN: 4, newN: 3, down: 1,
			old: phase{n: 4, stage: 0,
				quorum: []ids{{0, 1, 2}, {1, 2, 3}, {0, 2, 3}, {0, 1, 3}},
				avoid:  []ids{{0, 2, 3}, {0, 2, 3}, {0, 2, 3}, {0, 2, 3}}},
			joint: phase{n: 4, stage: 1,
				quorum: []ids{{0, 1, 2}, {1, 2, 3}, {0, 2, 3}, {0, 1, 3}},
				avoid:  []ids{{0, 2, 3}, {0, 2, 3}, {0, 2, 3}, {0, 2, 3}}},
			next: phase{n: 3, stage: 2,
				quorum: []ids{{0, 1}, {1, 2}, {0, 2}},
				avoid:  []ids{{0, 2}, {0, 2}, {0, 2}}},
		},
		{
			name: "grid-5→majority-6", oldC: coterie.Grid{}, newC: coterie.Majority{}, oldN: 5, newN: 6, down: 2,
			old: phase{n: 5, stage: 0,
				quorum: []ids{{0, 1, 2, 3}, {0, 1, 2, 4}, {0, 1, 2}, {0, 3, 4}, {1, 3, 4}},
				avoid:  []ids{{0, 3, 4}, {1, 3, 4}, {0, 3, 4}, {0, 3, 4}, {1, 3, 4}}},
			joint: phase{n: 6, stage: 1,
				quorum: []ids{{0, 1, 2, 3}, {0, 1, 2, 3, 4}, {0, 1, 2, 3, 4, 5}, {0, 3, 4, 5}, {0, 1, 3, 4, 5}, {0, 1, 2, 3, 5}},
				avoid:  []ids{{0, 1, 3, 4}, {0, 1, 3, 4}, {0, 1, 3, 4}, {0, 1, 3, 4}, {0, 1, 3, 4}, {0, 1, 3, 4, 5}}},
			next: phase{n: 6, stage: 2,
				quorum: []ids{{0, 1, 2, 3}, {1, 2, 3, 4}, {2, 3, 4, 5}, {0, 3, 4, 5}, {0, 1, 4, 5}, {0, 1, 2, 5}},
				avoid:  []ids{{0, 1, 3, 4}, {0, 1, 3, 4}, {0, 1, 3, 4}, {0, 1, 3, 4}, {0, 1, 3, 4}, {0, 1, 3, 5}}},
		},
	} {
		old, err := NewConfig(0, tc.oldC, tc.oldN)
		if err != nil {
			t.Fatal(err)
		}
		next, err := NewConfig(1, tc.newC, tc.newN)
		if err != nil {
			t.Fatal(err)
		}
		h, err := PlanHandover(old, next)
		if err != nil {
			t.Fatal(err)
		}
		down := map[mutex.SiteID]bool{tc.down: true}
		for _, p := range []struct {
			name   string
			want   phase
			member func(mutex.SiteID) mutex.Membership
		}{{"old", tc.old, old.Member}, {"joint", tc.joint, h.JointMember}, {"new", tc.next, next.Member}} {
			for i := range p.want.quorum {
				id := mutex.SiteID(i)
				m := p.member(id)
				if m.N != p.want.n || m.Stage != p.want.stage || !slices.Equal(m.Quorum, p.want.quorum[i]) {
					t.Errorf("%s %s site %d: N=%d stage=%d quorum %v, want N=%d stage=%d quorum %v",
						tc.name, p.name, i, m.N, m.Stage, m.Quorum, p.want.n, p.want.stage, p.want.quorum[i])
				}
				if m.Avoid == nil {
					t.Errorf("%s %s site %d: no avoiding rule", tc.name, p.name, i)
					continue
				}
				if q, ok := m.Avoid(down); !ok || !slices.Equal(q, p.want.avoid[i]) {
					t.Errorf("%s %s site %d: avoiding %d gave %v (ok=%v), want %v",
						tc.name, p.name, i, tc.down, q, ok, p.want.avoid[i])
				}
			}
		}
	}

	// Without a construction a configuration has no §6 rule: its sites keep
	// their quorums around a crash instead of guessing one.
	assign, err := coterie.Majority{}.Assign(3)
	if err != nil {
		t.Fatal(err)
	}
	if m := (Config{Coterie: assign}).Member(0); m.Avoid != nil {
		t.Fatal("a config without a construction handed out an avoiding rule")
	}
}
