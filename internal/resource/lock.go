// Package resource is the application's side of a named lock: the Lock
// handle and the rule that bounds lock names. A Lock drives one site's
// Endpoint of its lock — a protocol instance in a peer deployment, a
// leased session's forwarding stub in a client — through Acquire,
// TryAcquire and Release, queueing local callers on the handle so that the
// protocol sees one request per name per site.
//
// The package keeps no table of locks. Whoever hosts the endpoints (the
// transport's per-site host, the session client) keeps one canonical
// handle per name, builds it with NewLock and checks a new name with
// CheckName once, when it first sees it.
package resource

import (
	"context"
	"errors"
	"fmt"
)

// Default is the reserved name of the default resource: the single lock that
// legacy single-mutex deployments (and the pre-resource wire format) use.
// It is addressable through the transport's Node shim, never as a named
// Lock.
const Default = ""

// MaxNameLength bounds resource names, in bytes. Names travel in every wire
// envelope, so they are kept short.
const MaxNameLength = 128

// ErrClosed is returned for a lock name first asked for after its host
// closed.
var ErrClosed = errors.New("resource: lock manager is closed")

// ErrLockLost reports that a previously granted lock was invalidated out
// from under its holder — the defining hazard of leased sessions: the
// session expired or failed over to a different arbiter, so the arbiter has
// (or will have) reclaimed the lock for the next waiter. Peer-to-peer
// instances never return it. Release treats it as a completed release: the
// handle's admission token is freed so the name stays usable.
var ErrLockLost = errors.New("resource: lock lost (session expired or failed over)")

// CheckName is the rule every lock name meets: non-empty (the empty name is
// the reserved default resource) and at most MaxNameLength bytes. A host
// runs it once per name, when it first sees it, never per acquire.
func CheckName(name string) error {
	if name == Default {
		return errors.New("resource: empty lock name (the empty name is the reserved default resource)")
	}
	if len(name) > MaxNameLength {
		return fmt.Errorf("resource: lock name of %d bytes exceeds the %d-byte limit", len(name), MaxNameLength)
	}
	return nil
}

// Endpoint is one site's end of a named lock: what a Lock handle drives.
// internal/transport.Node implements it over the protocol, the session
// client over its arbiter.
type Endpoint interface {
	// Acquire blocks until the endpoint holds its critical section, the
	// context is cancelled, or the endpoint closes.
	Acquire(ctx context.Context) error
	// TryAcquire attempts to enter within the context's lifetime; running
	// out of time is (false, nil), not an error.
	TryAcquire(ctx context.Context) (bool, error)
	// Release exits the critical section.
	Release() error
}

// Lock is the handle for one named distributed lock. Handles are canonical —
// a host hands out the same *Lock for the same name — so every local
// user of a name shares one handle, and local contention queues on the
// handle instead of surfacing the protocol's one-request-per-site busy
// error. Remote contention is arbitrated by the resource's own instance of
// the quorum protocol.
//
// Like sync.Mutex, a Lock is not owner-checked: Release releases the lock
// whichever goroutine acquired it. Prefer Do, which pairs the two correctly
// even when the guarded function panics.
type Lock struct {
	name string
	end  Endpoint
	// sem is the local admission token: one in-flight protocol request per
	// name per site. Holding the token does not mean holding the lock — it
	// means this goroutine is the one talking to the protocol for this name.
	sem chan struct{}
}

// NewLock returns the handle driving end under name. Its caller keeps it as
// the name's canonical handle.
func NewLock(name string, end Endpoint) *Lock {
	return &Lock{name: name, end: end, sem: make(chan struct{}, 1)}
}

// Name returns the lock's resource name.
func (l *Lock) Name() string { return l.name }

// Acquire blocks until this site holds the named lock, the context is
// cancelled, or the cluster shuts down. Concurrent Acquires on the same name
// at the same site queue locally; sites compete through the quorum protocol.
// As with Node.Acquire, cancelling after the request was issued hands the
// eventually granted lock straight back.
func (l *Lock) Acquire(ctx context.Context) error {
	select {
	case l.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	if err := l.end.Acquire(ctx); err != nil {
		<-l.sem
		return err
	}
	return nil
}

// TryAcquire attempts to take the lock within the context's lifetime and
// reports whether it succeeded. Running out of time — locally queued or
// waiting on the quorum — is (false, nil), not an error; errors are reserved
// for real failures such as a closed cluster.
func (l *Lock) TryAcquire(ctx context.Context) (bool, error) {
	select {
	case l.sem <- struct{}{}:
	case <-ctx.Done():
		return false, nil
	}
	ok, err := l.end.TryAcquire(ctx)
	if !ok {
		<-l.sem
	}
	return ok, err
}

// Release exits the named lock's critical section. It returns the protocol's
// error when the lock is not held or the cluster has shut down. ErrLockLost
// still frees the handle (the arbiter reclaimed the lock; there is nothing
// left to hold), so callers can retry Acquire on the same handle after
// inspecting the error.
func (l *Lock) Release() error {
	err := l.end.Release()
	if err != nil && !errors.Is(err, ErrLockLost) {
		return err
	}
	select {
	case <-l.sem:
	default:
	}
	return err
}

// Do runs fn while holding the lock: acquire, run, release — the release
// happens even when fn panics (the panic then propagates). It returns the
// acquisition error, fn's error, or — when fn succeeded — the release error.
// Do is the recommended way to use a Lock: it makes an unbalanced
// acquire/release pair unrepresentable.
func (l *Lock) Do(ctx context.Context, fn func(ctx context.Context) error) (err error) {
	if err := l.Acquire(ctx); err != nil {
		return err
	}
	defer func() {
		relErr := l.Release()
		if err == nil {
			err = relErr
		}
	}()
	return fn(ctx)
}
