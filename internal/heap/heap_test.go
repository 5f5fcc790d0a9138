package heap

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func testModel() *Model {
	return &Model{S: NewSpace(), T: NewTypeTable()}
}

func TestSpaceLoadStore(t *testing.T) {
	s := NewSpace()
	s.Ensure(4096)
	s.Store64(8, 0xDEADBEEFCAFE)
	if got := s.Load64(8); got != 0xDEADBEEFCAFE {
		t.Fatalf("Load64 = %#x", got)
	}
	s.Store8(100, 0x7F)
	if s.Load8(100) != 0x7F {
		t.Fatal("Load8 mismatch")
	}
	s.Copy(200, 8, 8)
	if s.Load64(200) != 0xDEADBEEFCAFE {
		t.Fatal("Copy mismatch")
	}
	s.Zero(200, 8)
	if s.Load64(200) != 0 {
		t.Fatal("Zero failed")
	}
}

// TestSpaceGrowsPreservingContents: growth keeps what was written, and a
// slice taken before it still points into the space.
func TestSpaceGrowsPreservingContents(t *testing.T) {
	s := NewSpace()
	s.Ensure(64)
	s.Store64(16, 42)
	held := s.Bytes(24, 8)
	s.Ensure(1 << 20)
	if s.Load64(16) != 42 {
		t.Fatal("Ensure lost data")
	}
	held[0] = 7
	if s.Load8(24) != 7 {
		t.Fatal("a slice taken before Ensure no longer points into the space")
	}
	if s.Size() != 1<<20 {
		t.Fatalf("Size = %d", s.Size())
	}
}

func TestSpaceBoundsPanics(t *testing.T) {
	s := NewSpace()
	s.Ensure(64)
	for _, f := range []func(){
		func() { s.Load64(60) },
		func() { s.Load64(0) }, // nil deref
		func() { s.Store8(64, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestTypeRegistration(t *testing.T) {
	tt := NewTypeTable()
	ty := tt.Register(&Type{Name: "pair", Kind: KindFixed, Size: 24, RefOffsets: []int{8, 16}})
	if got := tt.ByIndex(ty.index); got != ty {
		t.Fatal("ByIndex mismatch")
	}
	// Index 0 reserved.
	func() {
		defer func() { recover() }()
		tt.ByIndex(0)
		t.Fatal("ByIndex(0) should panic")
	}()
}

func TestTypeValidation(t *testing.T) {
	tt := NewTypeTable()
	bad := []*Type{
		{Name: "tiny", Kind: KindFixed, Size: 4},
		{Name: "refout", Kind: KindFixed, Size: 16, RefOffsets: []int{16}},
		{Name: "refmis", Kind: KindFixed, Size: 24, RefOffsets: []int{12}},
		{Name: "refhdr", Kind: KindFixed, Size: 24, RefOffsets: []int{0}},
		{Name: "scal", Kind: KindScalarArray},
	}
	for _, ty := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q) did not panic", ty.Name)
				}
			}()
			tt.Register(ty)
		}()
	}
}

func TestObjectHeaderRoundTrip(t *testing.T) {
	m := testModel()
	m.S.Ensure(4096)
	ty := m.T.Register(&Type{Name: "node", Kind: KindFixed, Size: 32, RefOffsets: []int{8, 24}})
	a := Addr(64)
	m.InitObject(a, ty, FixedSize(ty), 0)

	if m.TypeOf(a) != ty {
		t.Fatal("TypeOf mismatch")
	}
	if m.SizeOf(a) != 32 {
		t.Fatalf("SizeOf = %d", m.SizeOf(a))
	}
	if m.Epoch(a) != 0 {
		t.Fatal("fresh object epoch != 0")
	}
	m.SetEpoch(a, 77)
	if m.Epoch(a) != 77 || m.SizeOf(a) != 32 || m.TypeOf(a) != ty {
		t.Fatal("SetEpoch clobbered other fields")
	}
	m.SetPinned(a, true)
	m.SetLogged(a, true)
	if !HeaderPinned(m.S.Load64(a)) || !m.Logged(a) || m.Epoch(a) != 77 {
		t.Fatal("flag setters wrong")
	}
	m.SetPinned(a, false)
	if HeaderPinned(m.S.Load64(a)) || !m.Logged(a) {
		t.Fatal("clearing pin clobbered logged")
	}
}

func TestForwarding(t *testing.T) {
	m := testModel()
	m.S.Ensure(4096)
	ty := m.T.Register(&Type{Name: "cell", Kind: KindFixed, Size: 16, RefOffsets: []int{8}})
	old, dst := Addr(64), Addr(256)
	m.InitObject(old, ty, FixedSize(ty), 0)
	m.S.Store64(old+8, 0x1234)
	// Copy then forward.
	m.S.Copy(dst, old, 16)
	m.Forward(old, dst)
	if fwd, ok := m.Forwarded(old); !ok || fwd != dst {
		t.Fatalf("Forwarded = %#x, %v", fwd, ok)
	}
	if _, ok := m.Forwarded(dst); ok {
		t.Fatal("copy must not be forwarded")
	}
	if m.S.Load64(dst+8) != 0x1234 {
		t.Fatal("copy lost field data")
	}
}

func TestRefArrayScanning(t *testing.T) {
	m := testModel()
	m.S.Ensure(4096)
	arr := m.T.Register(&Type{Name: "[]ref", Kind: KindRefArray})
	a := Addr(128)
	size := ArraySize(arr, 3)
	if size != ArrayHeaderSize+3*WordSize {
		t.Fatalf("ArraySize = %d", size)
	}
	m.InitObject(a, arr, size, 3)
	if m.ArrayLen(a) != 3 {
		t.Fatalf("ArrayLen = %d", m.ArrayLen(a))
	}
	var slots []Addr
	m.EachRef(a, func(s Addr) { slots = append(slots, s) })
	want := []Addr{a + 16, a + 24, a + 32}
	if len(slots) != 3 || slots[0] != want[0] || slots[2] != want[2] {
		t.Fatalf("slots = %v, want %v", slots, want)
	}
	if m.RefCountOf(m.TypeOf(a), a) != 3 {
		t.Fatalf("RefCount = %d", m.RefCountOf(m.TypeOf(a), a))
	}
}

func TestScalarArrayHasNoRefs(t *testing.T) {
	m := testModel()
	m.S.Ensure(4096)
	bytes := m.T.Register(&Type{Name: "[]byte", Kind: KindScalarArray, ElemSize: 1})
	a := Addr(128)
	m.InitObject(a, bytes, ArraySize(bytes, 100), 100)
	m.EachRef(a, func(Addr) { t.Fatal("scalar array produced a ref slot") })
	if m.RefCountOf(m.TypeOf(a), a) != 0 {
		t.Fatal("RefCount != 0")
	}
	// 100 bytes payload rounds to 8-byte alignment.
	if got := ArraySize(bytes, 100); got != align(16+100) {
		t.Fatalf("ArraySize = %d", got)
	}
}

func TestFixedRefScanning(t *testing.T) {
	m := testModel()
	m.S.Ensure(4096)
	ty := m.T.Register(&Type{Name: "t", Kind: KindFixed, Size: 40, RefOffsets: []int{16, 32}})
	a := Addr(512)
	m.InitObject(a, ty, FixedSize(ty), 0)
	m.S.Store64(a+16, 111)
	m.S.Store64(a+32, 222)
	var got []uint64
	m.EachRef(a, func(s Addr) { got = append(got, m.S.Load64(s)) })
	if len(got) != 2 || got[0] != 111 || got[1] != 222 {
		t.Fatalf("refs = %v", got)
	}
}

// Property: header encode/decode round-trips for arbitrary epoch and size.
func TestHeaderFieldIndependence(t *testing.T) {
	m := testModel()
	m.S.Ensure(1 << 16)
	ty := m.T.Register(&Type{Name: "x", Kind: KindFixed, Size: 16})
	f := func(epoch uint16, pin, logged bool) bool {
		a := Addr(64)
		m.InitObject(a, ty, 16, 0)
		m.SetEpoch(a, epoch)
		m.SetPinned(a, pin)
		m.SetLogged(a, logged)
		return m.Epoch(a) == epoch && HeaderPinned(m.S.Load64(a)) == pin &&
			m.Logged(a) == logged && m.SizeOf(a) == 16 && m.TypeOf(a) == ty
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAlignHelpers(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{8, 8}, {9, 16}, {15, 16}, {16, 16}, {17, 24},
	} {
		if got := align(c.in); got != c.want {
			t.Errorf("align(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestRefSlotsMatchesEachRef differential-tests the closure-free trace
// walker against the reference implementation: over randomized type tables
// (fixed types with assorted reference maps, reference arrays, scalar
// arrays), RefSlots must produce exactly the slots EachRef visits, in the
// same order.
func TestRefSlotsMatchesEachRef(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSpace()
	s.Ensure(1 << 20)
	tt := NewTypeTable()
	m := &Model{S: s, T: tt}

	var fixed []*Type
	for i := 0; i < 8; i++ {
		words := 1 + rng.Intn(12)
		size := HeaderSize + words*WordSize
		// A random subset of the payload words are references, in a random
		// (not necessarily ascending) descriptor order.
		nrefs := rng.Intn(words + 1)
		var offs []int
		for _, w := range rng.Perm(words)[:nrefs] {
			offs = append(offs, HeaderSize+w*WordSize)
		}
		fixed = append(fixed, tt.Register(&Type{
			Name:       fmt.Sprintf("fixed%d", i),
			Kind:       KindFixed,
			Size:       size,
			RefOffsets: offs,
		}))
	}
	refArr := tt.Register(&Type{Name: "refs", Kind: KindRefArray})
	scalArr := tt.Register(&Type{Name: "bytes", Kind: KindScalarArray, ElemSize: 1})

	a := Addr(WordSize)
	var objs []Addr
	for i := 0; i < 300; i++ {
		var ty *Type
		var size, n int
		switch rng.Intn(4) {
		case 0, 1:
			ty = fixed[rng.Intn(len(fixed))]
			size = FixedSize(ty)
		case 2:
			ty, n = refArr, rng.Intn(24)
			size = ArraySize(ty, n)
		default:
			ty, n = scalArr, rng.Intn(100)
			size = ArraySize(ty, n)
		}
		m.InitObject(a, ty, size, n)
		objs = append(objs, a)
		a += Addr(size)
	}

	buf := make([]Addr, 0, 64)
	for _, obj := range objs {
		var want []Addr
		m.EachRef(obj, func(slot Addr) { want = append(want, slot) })
		got := m.RefSlots(obj, buf[:0])
		if len(got) != len(want) {
			t.Fatalf("obj %#x (%s): RefSlots returned %d slots, EachRef visited %d",
				obj, m.TypeOf(obj).Name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("obj %#x (%s): slot %d = %#x, EachRef visited %#x",
					obj, m.TypeOf(obj).Name, i, got[i], want[i])
			}
		}
		buf = got[:0]
	}
}
