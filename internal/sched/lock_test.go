package sched

import (
	"sync"
	"testing"
)

// TestLockZeroValueIsUnshared: a Lock nobody shared is a nil check — it
// holds no mutex and bracketing a critical section with it allocates
// nothing.
func TestLockZeroValueIsUnshared(t *testing.T) {
	var l Lock
	if l.Shared() || l.mu != nil {
		t.Fatal("a zero Lock came shared")
	}
	if n := testing.AllocsPerRun(100, func() { l.Lock(); l.Unlock() }); n != 0 {
		t.Fatalf("Lock/Unlock on an unshared Lock allocated %v times", n)
	}
	if l.Shared() {
		t.Fatal("using an unshared Lock shared it")
	}
}

// TestLockShareIsOneWay: Share installs the mutex, and a second Share keeps
// it — a second user must not swap the mutex out from under a holder of the
// first (the subject of the deleted pcm.TestSetConcurrentIsOneWay, for every
// user of the type at once).
func TestLockShareIsOneWay(t *testing.T) {
	var l Lock
	l.Share()
	first := l.mu
	if first == nil || !l.Shared() {
		t.Fatal("Share installed no mutex")
	}
	l.Lock()
	l.Share()
	if l.mu != first {
		t.Fatal("a second Share replaced the mutex")
	}
	if first.TryLock() {
		t.Fatal("Lock on a shared Lock did not take its mutex")
	}
	l.Unlock()
	if !first.TryLock() {
		t.Fatal("Unlock on a shared Lock did not release its mutex")
	}
}

// TestLockHammer: once shared, the lock excludes. A plain int incremented
// under it by several goroutines loses no update (and the race detector sees
// every access ordered).
func TestLockHammer(t *testing.T) {
	const workers, rounds = 8, 2000
	var l Lock
	l.Share()
	n := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				l.Lock()
				n++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if n != workers*rounds {
		t.Fatalf("%d increments under the lock, want %d", n, workers*rounds)
	}
}
