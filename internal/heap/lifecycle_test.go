package heap

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// emptyFreeList starts the test from an empty free list and leaves one
// behind, so no backing crosses between tests.
func emptyFreeList(t *testing.T) {
	t.Helper()
	drain := func() {
		parked.Lock()
		for _, b := range parked.backings {
			unmapBacking(b)
		}
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
	a := NewSpaceBelow(16 * 4096)
	a.Ensure(3 * 4096)
	for _, at := range []Addr{8, 4096, 3*4096 - 1} { // the last mapped byte included
		a.Store8(at, 0xAB)
	}
	backing := cap(a.mem)
	a.Release()
	if Parked() != 1 {
		t.Fatalf("Parked() = %d after one Release, want 1", Parked())
	}

	b := NewSpaceBelow(16 * 4096)
	if Parked() != 0 {
		t.Fatalf("Parked() = %d after adoption, want 0", Parked())
	}
	if b.Size() != 0 || cap(b.mem) != backing {
		t.Fatalf("adopted space has size %#x cap %#x, want 0 and %#x", b.Size(), cap(b.mem), backing)
	}
	assertZero(t, fullCapacity(b))
}

// TestReleaseLeavesTheReservedTailAlone: a threaded run makes its whole
// space addressable but maps far less. Release must clear the mapped extent
// only — clearing the reservation is what made every threaded run resident
// in full.
func TestReleaseLeavesTheReservedTailAlone(t *testing.T) {
	emptyFreeList(t)
	s := NewSpaceBelow(1 << 20)
	s.Reserve()
	if s.mapped != 0 || len(s.mem) != 1<<20 {
		t.Fatalf("Reserve left %#x bytes addressable and counted %#x as mapped, want %#x and 0", len(s.mem), s.mapped, 1<<20)
	}
	s.Ensure(2 * 4096) // within the reservation: a no-op for len, not for mapped
	s.Ensure(4096)     // the mark never moves back
	if s.mapped != 2*4096 || len(s.mem) != 1<<20 {
		t.Fatalf("mapped %#x len %#x, want %#x and %#x", s.mapped, len(s.mem), 2*4096, 1<<20)
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

	// The next space of the same limit adopts the same mapping.
	n := NewSpaceBelow(1 << 20)
	n.Reserve()
	if &n.mem[0] != &backing[0] {
		t.Fatal("a space within the adopted capacity mapped a new backing")
	}
}

// TestSizeIsTheMappedMark: Size reports what Ensure covered, not what a
// reservation made addressable, so a census sized by it walks the heap and
// not the reservation.
func TestSizeIsTheMappedMark(t *testing.T) {
	for _, reserve := range []bool{false, true} {
		s := NewSpaceBelow(1 << 20)
		if reserve {
			s.Reserve()
		}
		s.Ensure(3 * 4096)
		if s.Size() != 3*4096 {
			t.Errorf("reserve=%v: Size() = %#x after Ensure(%#x)", reserve, s.Size(), 3*4096)
		}
		s.Release()
	}
}

// TestEnsurePastTheLimitPanics: a space never outgrows the backing it was
// made with; mapping past it is a bug in the caller, not a reason to move
// the backing.
func TestEnsurePastTheLimitPanics(t *testing.T) {
	emptyFreeList(t)
	s := NewSpaceBelow(16 * 4096)
	s.Ensure(16 * 4096)
	defer func() {
		if p, _ := recover().(string); !strings.Contains(p, "past the space's backing") {
			t.Fatalf("Ensure past the limit: recovered %q", p)
		}
	}()
	s.Ensure(16*4096 + 1)
}

func TestReleasedSpaceFaults(t *testing.T) {
	emptyFreeList(t)
	s := NewSpaceBelow(16 * 4096)
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
		"Load64":               func() { s.Load64(8) },
		"Store64":              func() { s.Store64(8, 1) },
		"Load8":                func() { s.Load8(8) },
		"Store8":               func() { s.Store8(8, 1) },
		"Copy":                 func() { s.Copy(8, 16, 8) },
		"Zero":                 func() { s.Zero(8, 8) },
		"Bytes":                func() { s.Bytes(8, 8) },
		"AtomicLoad64":         func() { s.AtomicLoad64(8) },
		"AtomicStore64":        func() { s.AtomicStore64(8, 1) },
		"Cas64":                func() { s.Cas64(8, 0, 1) },
		"Ensure":               func() { s.Ensure(4096) },
		"Load64 after Reserve": func() { s.Reserve(); s.Load64(8) },
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

// TestAdoptionMissGrows: the parked backing is smaller than the next space's
// limit. The new space maps a fresh backing of its limit and copies nothing,
// and the small backing is unmapped at once — it is not parked a second
// time.
func TestAdoptionMissGrows(t *testing.T) {
	emptyFreeList(t)
	small := NewSpaceBelow(4096)
	small.Ensure(4096)
	small.Store64(8, 1)
	small.Release()

	before := mappings.Load()
	big := NewSpaceBelow(64 * 4096)
	if Parked() != 0 {
		t.Fatalf("Parked() = %d after a miss, want 0", Parked())
	}
	if got := mappings.Load(); got != before {
		t.Fatalf("%d backings mapped after the miss, want %d: it maps one and unmaps the one it passed over", got, before)
	}
	if cap(big.mem) != 64*4096 {
		t.Fatalf("missed adoption mapped %#x bytes, want the limit %#x", cap(big.mem), 64*4096)
	}
	big.Ensure(64 * 4096)
	if big.Load64(8) != 0 {
		t.Fatal("previous tenant's word visible after a miss")
	}
	big.Store8(64*4096-1, 0xFF)
	big.Release()
	if Parked() != 1 {
		t.Fatalf("Parked() = %d, want the new backing alone", Parked())
	}
	assertZero(t, fullCapacity(NewSpaceBelow(4096)))
}

// TestAdoptsTheLargestBacking: with several parked, a new space takes the
// largest, which is the one most likely to cover its limit.
func TestAdoptsTheLargestBacking(t *testing.T) {
	emptyFreeList(t)
	var open []*Space
	for _, pages := range []Addr{2, 16, 4} {
		s := NewSpaceBelow(pages * 4096) // all three open at once, so none adopts another's
		s.Ensure(pages * 4096)
		open = append(open, s)
	}
	for _, s := range open {
		s.Release()
	}
	if Parked() != 3 {
		t.Fatalf("Parked() = %d, want 3", Parked())
	}
	if got := cap(NewSpaceBelow(4096).mem); got != 16*4096 {
		t.Fatalf("adopted a backing of %#x bytes, want the largest (%#x)", got, 16*4096)
	}
	if Parked() != 2 {
		t.Fatalf("Parked() = %d after one adoption, want 2", Parked())
	}
}

// TestDroppedSpaceIsUnmapped: a space that goes unreachable without a
// Release gives its backing back through its finalizer, and one that was
// released leaves its parked backing mapped.
func TestDroppedSpaceIsUnmapped(t *testing.T) {
	emptyFreeList(t)
	before := settledMappings()
	func() {
		s := NewSpaceBelow(16 * 4096)
		s.Ensure(16 * 4096)
		s.Store8(16*4096-1, 1)
	}()
	kept := NewSpaceBelow(16 * 4096)
	kept.Ensure(4096)
	kept.Release()
	if got := settledMappings(); got != before+1 {
		t.Fatalf("%d backings mapped once the dropped space was collected, want %d", got, before+1)
	}
	if Parked() != 1 {
		t.Fatalf("Parked() = %d, want the released backing", Parked())
	}
}

// settledMappings collects garbage until the finalizers of the spaces
// earlier tests dropped have run, and returns the count of backings then.
func settledMappings() int64 {
	n, same := mappings.Load(), 0
	for i := 0; i < 500 && same < 5; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		if m := mappings.Load(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestBackingLivesWhereTheBuildSays: where offHeap holds, materializing a
// space adds nothing to the Go heap; where it does not — the race
// detector's build among them, which must see every access to a space — the
// whole backing is Go heap.
func TestBackingLivesWhereTheBuildSays(t *testing.T) {
	emptyFreeList(t)
	const size = 64 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewSpaceBelow(size)
	s.Ensure(size)
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if offHeap && grew > size/8 {
		t.Errorf("the Go heap grew %d bytes for a %d-byte space mapped outside it", grew, size)
	}
	if !offHeap && grew < size-size/8 {
		t.Errorf("the Go heap grew %d bytes for a %d-byte space backed by it", grew, size)
	}
	s.Release()
}
