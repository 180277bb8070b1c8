package resource_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dqmx/internal/resource"
)

// The handle over a local mutex standing in for a lock's endpoint. The
// tables that hand handles out are tested where they live: the transport's
// host and the session client.

// fakeEndpoint is a local mutex standing in for a protocol instance.
type fakeEndpoint struct {
	mu   sync.Mutex
	held bool
}

func (f *fakeEndpoint) Acquire(ctx context.Context) error {
	f.mu.Lock()
	f.held = true
	return nil
}

func (f *fakeEndpoint) TryAcquire(ctx context.Context) (bool, error) {
	if err := f.Acquire(ctx); err != nil {
		return false, err
	}
	return true, nil
}

func (f *fakeEndpoint) Release() error {
	if !f.held {
		return errors.New("not held")
	}
	f.held = false
	f.mu.Unlock()
	return nil
}

// newLock is a handle named name over a fresh fake endpoint.
func newLock(name string) *resource.Lock {
	return resource.NewLock(name, &fakeEndpoint{})
}

func TestLocalContentionQueuesOnHandle(t *testing.T) {
	l := newLock("shared")
	const goroutines = 8
	const perG = 50
	var inCS atomic.Int32
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				if err := l.Acquire(context.Background()); err != nil {
					errs <- err
					return
				}
				if got := inCS.Add(1); got != 1 {
					errs <- fmt.Errorf("%d holders of one lock", got)
				}
				inCS.Add(-1)
				if err := l.Release(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestDoReleasesOnPanic(t *testing.T) {
	l := newLock("guarded")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic swallowed by Do")
			}
		}()
		_ = l.Do(context.Background(), func(context.Context) error { panic("boom") })
	}()
	// The lock must be free again: a fresh Do must finish promptly.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ran := false
	if err := l.Do(ctx, func(context.Context) error { ran = true; return nil }); err != nil {
		t.Fatalf("Do after panic: %v", err)
	}
	if !ran {
		t.Error("guarded function did not run")
	}
}

func TestDoReturnsFnError(t *testing.T) {
	l := newLock("errs")
	want := errors.New("application failure")
	if got := l.Do(context.Background(), func(context.Context) error { return want }); !errors.Is(got, want) {
		t.Errorf("Do = %v, want %v", got, want)
	}
}

func TestTryAcquireTimeoutIsNotAnError(t *testing.T) {
	l := newLock("busy")
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	ok, err := l.TryAcquire(ctx)
	if ok || err != nil {
		t.Errorf("TryAcquire on held lock = (%v, %v), want (false, nil)", ok, err)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	ok, err = l.TryAcquire(context.Background())
	if !ok || err != nil {
		t.Errorf("TryAcquire on free lock = (%v, %v), want (true, nil)", ok, err)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
}
