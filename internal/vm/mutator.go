package vm

import (
	"fmt"

	"wearmem/internal/core"
	"wearmem/internal/failmap"
	"wearmem/internal/heap"
	"wearmem/internal/stats"
)

// Mutator is one application thread's view of the runtime: allocation
// goes through the mutator's private Immix context (its own bump cursor,
// overflow cursor, recycled blocks and failed-line skip state) while
// reads, writes, barriers and roots share the VM.
//
// Mutators cooperate with the deterministic scheduler: a mutator is
// attached parked, must be Unparked while it runs and Parked whenever it
// yields, so a collection triggered by any mutator (or by a failure
// up-call) can assert the stop-the-world condition. Only one mutator runs
// at a time; the Mutator API is not itself thread-safe.
type Mutator struct {
	v      *VM
	id     int
	mc     *core.MutatorContext // nil for mark-sweep plans
	parked bool
	// clk is the clock this mutator's accessors charge: the VM's shared
	// clock, except inside a threaded batch, where it is a private
	// unshared shard merged into the shared clock by critical path when
	// the batch joins.
	clk *stats.Clock
	// newborn is this mutator's allocation-site register, a root in
	// instrumented or write-through runtimes (a failure landing between
	// the bump and the first store must find the object reachable even
	// when the allocating mutator is descheduled).
	newborn heap.Addr
}

// ID returns the mutator's attach index (0 for the primary mutator).
func (m *Mutator) ID() int { return m.id }

// VM returns the runtime the mutator belongs to.
func (m *Mutator) VM() *VM { return m.v }

// Clock returns the clock this mutator's accessors charge: the VM's
// shared clock, or the mutator's private shard while it runs in a threaded
// batch. Latency probes read deltas of it around operations.
func (m *Mutator) Clock() *stats.Clock { return m.clk }

// GCCycles returns the total simulated cycles spent in collections so
// far. On the threaded engine reading it from a running mutator is safe:
// collections only run while every other mutator is parked, so the value
// is quiescent whenever the caller is executing.
func (m *Mutator) GCCycles() stats.Cycles { return m.v.GCCycles() }

// Mutator0 returns the VM's primary mutator — id 0, allocation context 0,
// the handle the plain entry points run as — and attaches it on first use.
// Its allocation-site register has been a root since New.
func (v *VM) Mutator0() *Mutator {
	if len(v.muts) == 0 {
		v.muts = append(v.muts, &v.primary)
	}
	return &v.primary
}

// Attach attaches mutator 0, then mutators with fresh allocation contexts
// until k exist, and returns the first k. Ids line up with the collector's
// context ids, and each new mutator's allocation-site register joins the
// roots in attach order under the same instrumentation guard as the
// primary's: only instrumented or write-through runtimes can observe the
// window it protects, and the statistical-wear harness outputs must not
// shift.
func (v *VM) Attach(k int) []*Mutator {
	v.Mutator0()
	for len(v.muts) < k {
		m := &Mutator{v: v, id: len(v.muts), parked: true, clk: v.clock}
		if v.immix != nil {
			m.mc = v.immix.NewMutatorContext()
			if m.mc.ID() != m.id {
				panic(fmt.Sprintf("vm: mutator %d paired with context %d", m.id, m.mc.ID()))
			}
		}
		if v.cfg.Probe != nil || v.cfg.WriteThrough {
			v.roots.Add(&m.newborn)
		}
		v.muts = append(v.muts, m)
	}
	return v.muts[:k:k]
}

// Mutators returns the number of attached mutators (0 before Mutator0 or
// Attach is first used).
func (v *VM) Mutators() int { return len(v.muts) }

// RunMutators runs body once on each of a batch of k mutators and returns
// the first error. How a batch runs is the engine's: on the baton engine the
// bodies take deterministic round-robin turns and yield hands the baton
// over; on the threaded engine they are RunThreads tasks on real goroutines
// and yield is the mutator's Safepoint poll. A body calls yield wherever
// another mutator's collection may stop it — typically once per iteration.
// Mutators attached earlier are reused, the missing ones attached (Attach),
// so body sees ids 0..k-1.
func (v *VM) RunMutators(k int, body func(m *Mutator, yield func()) error) error {
	k = max(k, 1)
	v.Attach(k)
	return v.eng.run(k, body)
}

// New allocates a fixed-size object from the mutator's context.
func (m *Mutator) New(ty *heap.Type) (heap.Addr, error) {
	return m.v.allocRetry(m, ty, heap.FixedSize(ty), 0)
}

// NewArray allocates an array of n elements from the mutator's context.
func (m *Mutator) NewArray(ty *heap.Type, n int) (heap.Addr, error) {
	return m.v.allocRetry(m, ty, heap.ArraySize(ty, n), n)
}

// MustNew allocates or panics with ErrOutOfMemory (a DNF at the harness
// boundary).
func (m *Mutator) MustNew(ty *heap.Type) heap.Addr {
	a, err := m.New(ty)
	if err != nil {
		panic(err)
	}
	return a
}

// MustNewArray allocates an array or panics with ErrOutOfMemory.
func (m *Mutator) MustNewArray(ty *heap.Type, n int) heap.Addr {
	a, err := m.NewArray(ty, n)
	if err != nil {
		panic(err)
	}
	return a
}

// The accessors below are the runtime's one implementation of every load,
// store and barrier; the VM's plain entry points run them as its primary
// mutator. Each charges the mutator's clock (a private shard inside a
// threaded batch, the shared clock otherwise) and barriers on its context,
// so both engines run the same loads, stores, barriers and write-through
// machinery.

// ReadRef loads the reference at byte offset off of obj.
func (m *Mutator) ReadRef(obj heap.Addr, off int) heap.Addr {
	m.clk.Charge1(stats.EvFieldRead)
	return heap.Addr(m.v.model.S.Load64(obj + heap.Addr(off)))
}

// WriteRef stores a reference, applying the generational write barrier.
func (m *Mutator) WriteRef(obj heap.Addr, off int, val heap.Addr) {
	v := m.v
	m.clk.Charge1(stats.EvFieldWrite)
	if v.wt.Shared() {
		v.wt.Lock()
		defer v.wt.Unlock()
	}
	v.barrier(m.mc, obj)
	v.refStore(m.mc, obj+heap.Addr(off), uint64(val))
	if v.cfg.WriteThrough {
		v.writeback(obj + heap.Addr(off))
	}
}

// ReadWord loads a scalar word field.
func (m *Mutator) ReadWord(obj heap.Addr, off int) uint64 {
	m.clk.Charge1(stats.EvFieldRead)
	return m.v.model.S.Load64(obj + heap.Addr(off))
}

// WriteWord stores a scalar word field.
func (m *Mutator) WriteWord(obj heap.Addr, off int, val uint64) {
	v := m.v
	m.clk.Charge1(stats.EvFieldWrite)
	if v.wt.Shared() {
		v.wt.Lock()
		defer v.wt.Unlock()
	}
	v.model.S.Store64(obj+heap.Addr(off), val)
	if v.cfg.WriteThrough {
		v.writeback(obj + heap.Addr(off))
	}
}

// ArrayRef loads element i of a reference array.
func (m *Mutator) ArrayRef(arr heap.Addr, i int) heap.Addr {
	m.clk.Charge1(stats.EvArrayAccess)
	m.v.boundsCheck(arr, i)
	return heap.Addr(m.v.model.S.Load64(arr + heap.ArrayHeaderSize + heap.Addr(i*heap.WordSize)))
}

// SetArrayRef stores element i of a reference array with the barrier.
func (m *Mutator) SetArrayRef(arr heap.Addr, i int, val heap.Addr) {
	v := m.v
	m.clk.Charge1(stats.EvArrayAccess)
	v.boundsCheck(arr, i)
	if v.wt.Shared() {
		v.wt.Lock()
		defer v.wt.Unlock()
	}
	v.barrier(m.mc, arr)
	v.refStore(m.mc, arr+heap.ArrayHeaderSize+heap.Addr(i*heap.WordSize), uint64(val))
	if v.cfg.WriteThrough {
		v.writeback(arr + heap.ArrayHeaderSize + heap.Addr(i*heap.WordSize))
	}
}

// ArrayByte loads byte i of a scalar byte array.
func (m *Mutator) ArrayByte(arr heap.Addr, i int) byte {
	m.clk.Charge1(stats.EvArrayAccess)
	m.v.boundsCheck(arr, i)
	return m.v.model.S.Load8(arr + heap.ArrayHeaderSize + heap.Addr(i))
}

// SetArrayByte stores byte i of a scalar byte array.
func (m *Mutator) SetArrayByte(arr heap.Addr, i int, b byte) {
	v := m.v
	m.clk.Charge1(stats.EvArrayAccess)
	v.boundsCheck(arr, i)
	if v.wt.Shared() {
		v.wt.Lock()
		defer v.wt.Unlock()
	}
	v.model.S.Store8(arr+heap.ArrayHeaderSize+heap.Addr(i), b)
	if v.cfg.WriteThrough {
		v.writeback(arr + heap.ArrayHeaderSize + heap.Addr(i))
	}
}

// SetArrayBytes stores src into bytes i.. of a scalar byte array: exactly
// len(src) SetArrayByte calls in order, a device line at a time. The
// stores a line receives are one step when storeLine can take it; when it
// cannot, they run one by one through SetArrayByte, so every effect a
// per-byte store has lands where it would have.
func (m *Mutator) SetArrayBytes(arr heap.Addr, i int, src []byte) {
	if len(src) == 0 {
		return
	}
	m.v.boundsCheck(arr, i)
	m.v.boundsCheck(arr, i+len(src)-1)
	for len(src) > 0 {
		addr := arr + heap.ArrayHeaderSize + heap.Addr(i)
		n := min(len(src), failmap.LineSize-int(addr%failmap.LineSize))
		if !m.storeLine(addr, src[:n]) {
			for j, b := range src[:n] {
				m.SetArrayByte(arr, i+j, b)
			}
		}
		i, src = i+n, src[n:]
	}
}

// storeLine stores src, which lies within one device line, at addr as one
// step and reports whether it could: the bytes land, the len(src) array
// accesses are one charge and, under write-through, the device applies
// len(src) writes of the finished line at once (kernel.WriteLineRepeat).
// When the kernel refuses — a write of the run could fail, stall, level,
// cluster or be seen by a frame policy — the old bytes go back and nothing
// is charged. It takes the write-through transaction once for the line.
func (m *Mutator) storeLine(addr heap.Addr, src []byte) bool {
	v := m.v
	if v.wt.Shared() {
		v.wt.Lock()
		defer v.wt.Unlock()
	}
	dst := v.model.S.Bytes(addr, len(src))
	var old [failmap.LineSize]byte
	copy(old[:], dst)
	copy(dst, src)
	line := addr &^ heap.Addr(failmap.LineSize-1)
	if v.cfg.WriteThrough && !v.kern.WriteLineRepeat(uint64(line), v.model.S.Bytes(line, failmap.LineSize), len(src)) {
		copy(dst, old[:])
		return false
	}
	m.clk.Charge(stats.EvArrayAccess, uint64(len(src)))
	return true
}

// ArrayLen returns the element count of the array at arr (no clock charge;
// it models metadata the compiler would know statically).
func (m *Mutator) ArrayLen(arr heap.Addr) int { return m.v.model.ArrayLen(arr) }

// AddRoot registers a host-side root slot.
func (m *Mutator) AddRoot(slot *heap.Addr) { m.v.AddRoot(slot) }

// RemoveRoot unregisters a root slot.
func (m *Mutator) RemoveRoot(slot *heap.Addr) { m.v.RemoveRoot(slot) }

// Pin marks the object immovable.
func (m *Mutator) Pin(a heap.Addr) { m.v.Pin(a) }

// Work charges n units of application compute to the cost model.
func (m *Mutator) Work(n int) { m.clk.Charge(stats.EvMutatorOp, uint64(n)) }
