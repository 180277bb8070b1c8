package chaos

import (
	"bytes"
	"reflect"
	"testing"

	"dqmx/internal/mutex"
)

// TestLedgerCanonicalCoversEveryField keeps the promise that a new Ledger
// field cannot silently weaken the model checker, whose state key includes
// the ledger: every field of the ledger and of a request wave is shown to
// reach AppendCanonical (changing it alone changes the bytes), and none is a
// map, which a Clone would share. The counts reach it only when asked for.
func TestLedgerCanonicalCoversEveryField(t *testing.T) {
	covers := func(typ reflect.Type, perturb map[string]func(l *Ledger)) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Type.Kind() == reflect.Map {
				t.Errorf("%s.%s is a map: a Clone would share it", typ.Name(), f.Name)
			}
			p, ok := perturb[f.Name]
			if !ok {
				t.Errorf("%s.%s does not reach AppendCanonical: no perturbation here", typ.Name(), f.Name)
				continue
			}
			delete(perturb, f.Name)
			base, l := NewLedger(3), NewLedger(3)
			p(&l)
			if bytes.Equal(l.AppendCanonical(nil, true), base.AppendCanonical(nil, true)) {
				t.Errorf("changing %s.%s leaves AppendCanonical unchanged", typ.Name(), f.Name)
			}
		}
		for name := range perturb {
			t.Errorf("perturbed field %s.%s does not exist", typ.Name(), name)
		}
	}
	covers(reflect.TypeOf(Ledger{}), map[string]func(l *Ledger){
		"held":   func(l *Ledger) { l.held = true },
		"holder": func(l *Ledger) { l.holder = 2 },
		"sends":  func(l *Ledger) { l.sends = 5 },
		"exits":  func(l *Ledger) { l.exits = 5 },
		"faulty": func(l *Ledger) { l.faulty = true },
		"waves":  func(l *Ledger) { l.waves[2].waiting = true },
		"before": func(l *Ledger) { l.before[len(l.before)-1] = true },
	})
	covers(reflect.TypeOf(wave{}), map[string]func(l *Ledger){
		"ts":        func(l *Ledger) { l.waves[2].ts = ts(1, 2) },
		"waiting":   func(l *Ledger) { l.waves[2].waiting = true },
		"stamped":   func(l *Ledger) { l.waves[2].stamped = true },
		"inFlight":  func(l *Ledger) { l.waves[2].inFlight = 1 },
		"settled":   func(l *Ledger) { l.waves[2].settled = true },
		"withdrawn": func(l *Ledger) { l.waves[2].withdrawn = true },
	})

	base, l := NewLedger(3), NewLedger(3)
	l.sends, l.exits = 5, 5
	if !bytes.Equal(l.AppendCanonical(nil, false), base.AppendCanonical(nil, false)) {
		t.Error("the counts reach AppendCanonical without counters")
	}
}

// TestLedgerCloneIsIndependent: a Clone shares nothing mutable with its
// source. Every input stepped into the clone leaves the source's encoding
// as it was.
func TestLedgerCloneIsIndependent(t *testing.T) {
	l := NewLedger(3)
	l.Request(0, ts(1, 0))
	l.Sent(0, mutex.KindRequest, true)
	l.Delivered(0)
	l.Request(1, ts(2, 1))
	l.Enter(2, nil)
	before := l.AppendCanonical(nil, true)

	c := l.Clone()
	if !bytes.Equal(c.AppendCanonical(nil, true), before) {
		t.Fatal("a clone encodes differently from its source")
	}
	c.Exit(2)
	c.Sent(1, mutex.KindRequest, true)
	c.Delivered(1)
	c.Withdrew(0)
	c.Enter(1, nil)
	c.Fail(0)
	c.Request(5, ts(3, 5)) // grows the clone
	if !bytes.Equal(l.AppendCanonical(nil, true), before) {
		t.Fatalf("stepping a clone changed its source: %v", &l)
	}
}
