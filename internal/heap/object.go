package heap

import "fmt"

// Object header layout (one 64-bit word at the object's base address):
//
//	bits  0..7  flags (forwarded, pinned, logged)
//	bits  8..23 sticky mark epoch (0 = allocated since the last collection)
//	bits 24..39 type index
//	bits 40..63 object size in bytes, including header (max 16 MB)
//
// When the forwarded flag is set the remaining bits hold the forwarding
// address instead; the authoritative header lives at the new copy.
const (
	HeaderSize = WordSize
	// ArrayLenOffset is where array objects store their element count.
	ArrayLenOffset = HeaderSize
	// ArrayHeaderSize is the fixed prefix of an array object.
	ArrayHeaderSize = HeaderSize + WordSize
	// MaxObjectSize is the largest encodable object.
	MaxObjectSize = 1<<24 - 1
)

const (
	flagForwarded = 1 << 0
	flagPinned    = 1 << 1
	flagLogged    = 1 << 2
)

// Kind describes an object's scanning shape.
type Kind int

const (
	// KindFixed objects have a static size and reference map.
	KindFixed Kind = iota
	// KindRefArray objects are arrays of references.
	KindRefArray
	// KindScalarArray objects are arrays of non-reference data.
	KindScalarArray
)

// Type describes a class of objects.
type Type struct {
	Name string
	Kind Kind
	// Size is the total object size in bytes including the header; used by
	// KindFixed only.
	Size int
	// RefOffsets are the byte offsets of reference slots from the object
	// base; used by KindFixed only.
	RefOffsets []int
	// ElemSize is the element size in bytes; used by KindScalarArray only
	// (KindRefArray elements are WordSize).
	ElemSize int

	index uint16
}

// TypeTable registers the types of a runtime.
type TypeTable struct {
	types []*Type
}

// NewTypeTable returns an empty table. Index 0 is reserved so that a zeroed
// header never aliases a real type.
func NewTypeTable() *TypeTable {
	return &TypeTable{types: []*Type{{Name: "<reserved>"}}}
}

// Register adds a type and returns it for convenience.
func (t *TypeTable) Register(ty *Type) *Type {
	if len(t.types) >= 1<<16 {
		panic("heap: type table full")
	}
	switch ty.Kind {
	case KindFixed:
		if ty.Size < HeaderSize || ty.Size > MaxObjectSize {
			panic(fmt.Sprintf("heap: type %q has bad size %d", ty.Name, ty.Size))
		}
		for _, off := range ty.RefOffsets {
			if off < HeaderSize || off+WordSize > ty.Size || off%WordSize != 0 {
				panic(fmt.Sprintf("heap: type %q has bad ref offset %d", ty.Name, off))
			}
		}
	case KindRefArray:
		ty.ElemSize = WordSize
	case KindScalarArray:
		if ty.ElemSize <= 0 {
			panic(fmt.Sprintf("heap: scalar array type %q needs ElemSize", ty.Name))
		}
	}
	ty.index = uint16(len(t.types))
	t.types = append(t.types, ty)
	return ty
}

// ByIndex returns the type with the given index.
func (t *TypeTable) ByIndex(i uint16) *Type {
	if int(i) >= len(t.types) || i == 0 {
		panic(fmt.Sprintf("heap: bad type index %d", i))
	}
	return t.types[i]
}

// Lookup returns the type with the given index, reporting false for the
// reserved index 0 and for indices never registered — the non-panicking
// twin of ByIndex for verifiers walking possibly-corrupt headers.
func (t *TypeTable) Lookup(i uint16) (*Type, bool) {
	if int(i) >= len(t.types) || i == 0 {
		return nil, false
	}
	return t.types[i], true
}

// Model bundles the address space with the type table and provides the
// object-level operations the collectors and the runtime share.
type Model struct {
	S *Space
	T *TypeTable
}

// FixedSize returns the allocation size for a fixed type.
func FixedSize(ty *Type) int { return align(ty.Size) }

// ArraySize returns the allocation size for an array of n elements.
func ArraySize(ty *Type, n int) int {
	if ty.Kind == KindFixed {
		panic("heap: ArraySize of fixed type")
	}
	return align(ArrayHeaderSize + n*ty.ElemSize)
}

func align(n int) int { return (n + WordSize - 1) &^ (WordSize - 1) }

// InitObject writes a fresh header (epoch 0, no flags) for an object of
// type ty and total size bytes at address a, and the length word for
// arrays.
func (m *Model) InitObject(a Addr, ty *Type, size, arrayLen int) {
	if size < HeaderSize || size > MaxObjectSize {
		panic(fmt.Sprintf("heap: bad object size %d", size))
	}
	if ty.index == 0 {
		panic(fmt.Sprintf("heap: type %q not registered", ty.Name))
	}
	m.S.Store64(a, uint64(ty.index)<<24|uint64(size)<<40)
	if ty.Kind != KindFixed {
		m.S.Store64(a+ArrayLenOffset, uint64(arrayLen))
	}
}

// TypeOf returns the type of the object at a.
func (m *Model) TypeOf(a Addr) *Type { return m.TypeFromHeader(m.S.Load64(a)) }

// SizeOf returns the total size in bytes of the object at a.
func (m *Model) SizeOf(a Addr) int { return SizeFromHeader(m.S.Load64(a)) }

// ArrayLen returns the element count of the array object at a.
func (m *Model) ArrayLen(a Addr) int { return int(m.S.Load64(a + ArrayLenOffset)) }

// Epoch returns the object's sticky mark epoch (0 = never marked).
func (m *Model) Epoch(a Addr) uint16 { return HeaderEpoch(m.S.Load64(a)) }

// SetEpoch stamps the object's mark epoch.
func (m *Model) SetEpoch(a Addr, e uint16) { m.S.Store64(a, withEpoch(m.S.Load64(a), e)) }

// SetPinned sets or clears the pin flag.
func (m *Model) SetPinned(a Addr, pinned bool) {
	h := m.S.Load64(a)
	if pinned {
		h |= flagPinned
	} else {
		h &^= flagPinned
	}
	m.S.Store64(a, h)
}

// Logged reports whether the object is in the modified-object buffer
// (sticky collectors' write barrier state).
func (m *Model) Logged(a Addr) bool { return m.S.Load64(a)&flagLogged != 0 }

// SetLogged sets or clears the logged flag.
func (m *Model) SetLogged(a Addr, logged bool) {
	h := m.S.Load64(a)
	if logged {
		h |= flagLogged
	} else {
		h &^= flagLogged
	}
	m.S.Store64(a, h)
}

// Forwarded reports whether the object has been moved, and if so where.
func (m *Model) Forwarded(a Addr) (Addr, bool) { return HeaderForwarded(m.S.Load64(a)) }

// Forward installs a forwarding pointer at old referring to new. The copy
// at new must already carry the object's real header.
func (m *Model) Forward(old, new Addr) { m.S.Store64(old, ForwardHeader(new)) }

// RefSlots appends the address of every reference slot of the object at a
// to buf and returns the extended slice, in the same order EachRef visits
// them. It is the closure-free twin of EachRef for the collectors' trace
// hot path: one call per object instead of an indirect call per slot, into
// a buffer the caller reuses across objects and collections. EachRef stays
// as the reference implementation; TestRefSlotsMatchesEachRef differential-
// tests the two over randomized type tables.
func (m *Model) RefSlots(a Addr, buf []Addr) []Addr { return m.RefSlotsOf(m.TypeOf(a), a, buf) }

// Stamp sets the object's mark epoch and returns its type and total size,
// decoding the header in a single load where the trace loop previously
// paid separate TypeOf, SizeOf and SetEpoch header accesses per object.
func (m *Model) Stamp(a Addr, e uint16) (*Type, int) {
	h := m.S.Load64(a)
	m.S.Store64(a, withEpoch(h, e))
	return m.TypeFromHeader(h), SizeFromHeader(h)
}

// RefCountOf returns the number of reference slots of the object at a,
// whose type is ty.
func (m *Model) RefCountOf(ty *Type, a Addr) int {
	switch ty.Kind {
	case KindFixed:
		return len(ty.RefOffsets)
	case KindRefArray:
		return m.ArrayLen(a)
	default:
		return 0
	}
}

// EachRef invokes f with the address of every reference slot of the object
// at a. Slots may be rewritten through the space during the call (the
// collectors update referents this way).
func (m *Model) EachRef(a Addr, f func(slot Addr)) {
	ty := m.TypeOf(a)
	switch ty.Kind {
	case KindFixed:
		for _, off := range ty.RefOffsets {
			f(a + Addr(off))
		}
	case KindRefArray:
		n := m.ArrayLen(a)
		for i := 0; i < n; i++ {
			f(a + ArrayHeaderSize + Addr(i*WordSize))
		}
	case KindScalarArray:
	}
}
