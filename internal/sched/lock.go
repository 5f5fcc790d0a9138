package sched

import "sync"

// Lock is the repo's one ownership rule: state is single-owner until
// somebody shares it. The zero value is unshared — Lock and Unlock are a nil
// check that inlines into the caller, so whatever one goroutine drives alone
// (the baton engine, a wear study, a bare device) pays for no mutex. Share
// installs the mutex; whoever is about to let a second goroutine reach the
// guarded state calls it first, while it still is the only owner (the
// threaded engine's constructor does, for the clock, the device and the VM's
// own state). Sharing is one-way and idempotent: there is no way back, and a
// second Share keeps the first mutex, so one user can never strip or swap the
// exclusion another relies on. A Lock must not be copied.
type Lock struct{ mu *sync.Mutex }

// Share makes the lock real. Call it before the guarded state is shared.
func (l *Lock) Share() {
	if l.mu == nil {
		l.mu = new(sync.Mutex)
	}
}

// Shared reports whether Share has been called.
func (l *Lock) Shared() bool { return l.mu != nil }

// Lock excludes other holders once the lock is shared; before, it is free.
func (l *Lock) Lock() {
	if l.mu != nil {
		l.mu.Lock()
	}
}

// Unlock releases a Lock taken in the same sharing state.
func (l *Lock) Unlock() {
	if l.mu != nil {
		l.unlock()
	}
}

// unlock is out of line because sync.Mutex.Unlock's inlined fast path would
// push Unlock past the inlining budget, and the unshared path with it.
//
//go:noinline
func (l *Lock) unlock() { l.mu.Unlock() }
