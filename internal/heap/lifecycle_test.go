package heap

import (
	"strings"
	"testing"
)

// emptyFreeList starts the test from an empty free list and leaves one
// behind, so no backing crosses between tests.
func emptyFreeList(t *testing.T) {
	t.Helper()
	drain := func() {
		parked.Lock()
		parked.backings = nil
		parked.Unlock()
	}
	drain()
	t.Cleanup(drain)
}

// fullCapacity exposes the whole backing of a space that has mapped
// nothing yet, the way a run that needs all of it would.
func fullCapacity(s *Space) []byte {
	s.Ensure(Addr(cap(s.mem)))
	return s.mem
}

func assertZero(t *testing.T, b []byte) {
	t.Helper()
	for i, c := range b {
		if c != 0 {
			t.Fatalf("byte %#x of %#x reads %#x, want 0", i, len(b), c)
		}
	}
}

func TestReleaseZeroesWhatTheTenantMapped(t *testing.T) {
	emptyFreeList(t)
	a := NewSpace()
	a.Ensure(3 * 4096)
	for _, at := range []Addr{8, 4096, 3*4096 - 1} { // the last mapped byte included
		a.Store8(at, 0xAB)
	}
	backing := cap(a.mem)
	a.Release()
	if Parked() != 1 {
		t.Fatalf("Parked() = %d after one Release, want 1", Parked())
	}

	b := NewSpace()
	if Parked() != 0 {
		t.Fatalf("Parked() = %d after adoption, want 0", Parked())
	}
	if b.Size() != 0 || cap(b.mem) != backing {
		t.Fatalf("adopted space has size %#x cap %#x, want 0 and %#x", b.Size(), cap(b.mem), backing)
	}
	assertZero(t, fullCapacity(b))
}

// TestReleaseLeavesTheReservedTailAlone: a threaded run reserves far more
// than it maps. Release must clear the mapped extent only — clearing the
// reservation is what made every threaded run resident in full.
func TestReleaseLeavesTheReservedTailAlone(t *testing.T) {
	emptyFreeList(t)
	s := NewSpace()
	s.Reserve(1 << 20)
	if s.mapped != 0 {
		t.Fatalf("Reserve counted %#x bytes as mapped", s.mapped)
	}
	s.Ensure(2 * 4096) // within the reservation: a no-op for len, not for mapped
	s.Ensure(4096)     // the mark never moves back
	if s.mapped != 2*4096 || s.Size() != 1<<20 {
		t.Fatalf("mapped %#x size %#x, want %#x and %#x", s.mapped, s.Size(), 2*4096, 1<<20)
	}
	s.Store8(2*4096-1, 0xCD)
	// A sentinel above the mark stands in for "never touched": nothing a
	// correct run does writes there, so surviving Release proves Release
	// stopped at the mark.
	backing := s.mem[:cap(s.mem)]
	backing[1<<19] = 0xEE
	s.Release()
	if backing[2*4096-1] != 0 {
		t.Fatal("last mapped byte survived Release")
	}
	if backing[1<<19] != 0xEE {
		t.Fatal("Release wrote above the mapped high-water mark")
	}
	backing[1<<19] = 0 // restore the free list's all-zero invariant

	// The next reservation of the same size is a reslice of the same array.
	n := NewSpace()
	n.Reserve(1 << 20)
	if &n.mem[0] != &backing[0] {
		t.Fatal("reservation within the adopted capacity reallocated")
	}
}

func TestReleasedSpaceFaults(t *testing.T) {
	emptyFreeList(t)
	s := NewSpace()
	s.Ensure(4096)
	s.Release()
	s.Release() // harmless, and parks nothing more
	if Parked() != 1 {
		t.Fatalf("Parked() = %d after a double Release, want 1", Parked())
	}
	if s.Size() != 0 {
		t.Fatalf("released space reports size %#x", s.Size())
	}
	for name, access := range map[string]func(){
		"Load64":        func() { s.Load64(8) },
		"Store64":       func() { s.Store64(8, 1) },
		"Load8":         func() { s.Load8(8) },
		"Store8":        func() { s.Store8(8, 1) },
		"Copy":          func() { s.Copy(8, 16, 8) },
		"Zero":          func() { s.Zero(8, 8) },
		"Bytes":         func() { s.Bytes(8, 8) },
		"AtomicLoad64":  func() { s.AtomicLoad64(8) },
		"AtomicStore64": func() { s.AtomicStore64(8, 1) },
		"Cas64":         func() { s.Cas64(8, 0, 1) },
		"Ensure":        func() { s.Ensure(4096) },
		"Reserve":       func() { s.Reserve(4096) },
	} {
		func() {
			defer func() {
				p, _ := recover().(string)
				if !strings.Contains(p, "released space") {
					t.Errorf("%s on a released space: recovered %q, want a released-space panic", name, p)
				}
			}()
			access()
		}()
	}
}

// TestAdoptionMissGrows: the parked backing is smaller than the next run
// needs. The run grows as an empty space would and the small backing goes
// to the garbage collector — it is not parked a second time.
func TestAdoptionMissGrows(t *testing.T) {
	emptyFreeList(t)
	small := NewSpace()
	small.Ensure(4096)
	small.Store64(8, 1)
	small.Release()

	big := NewSpace()
	big.Ensure(4096)
	big.Store64(4088, 0x1122334455667788)
	big.Ensure(64 * 4096)
	if Parked() != 0 {
		t.Fatalf("Parked() = %d after growing past the adopted backing, want 0", Parked())
	}
	if got := big.Load64(4088); got != 0x1122334455667788 {
		t.Fatalf("contents lost across growth: %#x", got)
	}
	if big.Load64(8) != 0 {
		t.Fatal("previous tenant's word visible after growth")
	}
	big.Store8(64*4096-1, 0xFF)
	big.Release()
	if Parked() != 1 {
		t.Fatalf("Parked() = %d, want the grown backing alone", Parked())
	}
	assertZero(t, fullCapacity(NewSpace()))
}

// TestAdoptsTheLargestBacking: with several parked, a new space takes the
// largest, which is the one least likely to need growing.
func TestAdoptsTheLargestBacking(t *testing.T) {
	emptyFreeList(t)
	var open []*Space
	for _, pages := range []Addr{2, 16, 4} {
		s := NewSpace() // all three open at once, so none adopts another's
		s.Ensure(pages * 4096)
		open = append(open, s)
	}
	for _, s := range open {
		s.Release()
	}
	if Parked() != 3 {
		t.Fatalf("Parked() = %d, want 3", Parked())
	}
	if got := cap(NewSpace().mem); got != 16*4096 {
		t.Fatalf("adopted a backing of %#x bytes, want the largest (%#x)", got, 16*4096)
	}
	if Parked() != 2 {
		t.Fatalf("Parked() = %d after one adoption, want 2", Parked())
	}
}
