package vm

import (
	"fmt"

	"wearmem/internal/core"
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
	// clk is the clock this mutator's accessors charge. On the baton
	// engine it aliases the VM's shared clock (byte-identical accounting);
	// on the threaded engine it is a private unshared shard, merged into
	// the shared clock by critical path when RunThreads joins.
	clk *stats.Clock
	// newborn is this mutator's allocation-site register, a root under
	// the same instrumentation guard as the VM's own (a failure landing
	// between the bump and the first store must find the object
	// reachable even when the allocating mutator is descheduled).
	newborn heap.Addr
}

// ID returns the mutator's attach index (0 for the primary mutator).
func (m *Mutator) ID() int { return m.id }

// VM returns the runtime the mutator belongs to.
func (m *Mutator) VM() *VM { return m.v }

// Clock returns the clock this mutator's accessors charge: the VM's
// shared clock on the baton engine, the mutator's private shard on the
// threaded one. Latency probes read deltas of it around operations.
func (m *Mutator) Clock() *stats.Clock { return m.clk }

// GCCycles returns the total simulated cycles spent in collections so
// far. On the threaded engine reading it from a running mutator is safe:
// collections only run while every other mutator is parked, so the value
// is quiescent whenever the caller is executing.
func (m *Mutator) GCCycles() stats.Cycles { return m.v.GCCycles() }

// Mutator0 returns the primary mutator, backed by the same allocation
// context as the VM's plain entry points. It attaches on first use.
func (v *VM) Mutator0() *Mutator {
	if len(v.muts) > 0 {
		return v.muts[0]
	}
	m := &Mutator{v: v, parked: true}
	if v.immix != nil {
		m.mc = v.immix.Context0()
	}
	v.attach(m)
	return m
}

// AttachMutator adds a mutator with a fresh allocation context. The
// primary mutator is attached first implicitly, so ids always line up
// with the collector's context ids.
func (v *VM) AttachMutator() *Mutator {
	v.Mutator0()
	m := &Mutator{v: v, id: len(v.muts), parked: true}
	if v.immix != nil {
		m.mc = v.immix.NewMutatorContext()
		if m.mc.ID() != m.id {
			panic(fmt.Sprintf("vm: mutator %d paired with context %d", m.id, m.mc.ID()))
		}
	}
	v.attach(m)
	return m
}

func (v *VM) attach(m *Mutator) {
	v.eng.attach(m)
	if v.cfg.Probe != nil || v.cfg.WriteThrough {
		// Same guard as the VM's own newborn root: only instrumented or
		// write-through runtimes can observe the window it protects, and
		// the statistical-wear harness outputs must not shift.
		v.roots.Add(&m.newborn)
	}
	v.muts = append(v.muts, m)
}

// Mutators returns the number of attached mutators (0 before Mutator0 or
// AttachMutator is first used).
func (v *VM) Mutators() int { return len(v.muts) }

// RunMutators runs body once on each of a batch of k mutators and returns
// the first error. How a batch runs is the engine's: on the baton engine the
// bodies take deterministic round-robin turns and yield hands the baton
// over; on the threaded engine they are RunThreads tasks on real goroutines
// and yield is the mutator's Safepoint poll. A body calls yield wherever
// another mutator's collection may stop it — typically once per iteration.
// Mutators attached earlier (Mutator0, AttachMutator) are reused, the
// missing ones attached, so body sees ids 0..k-1.
func (v *VM) RunMutators(k int, body func(m *Mutator, yield func()) error) error {
	if k < 1 {
		k = 1
	}
	v.Mutator0()
	for len(v.muts) < k {
		v.AttachMutator()
	}
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

// The accessors below share the VM's implementations, parameterized by
// the mutator's clock (the shared clock on the baton engine, a private
// shard on the threaded one) and its barrier context, so both engines run
// the same loads, stores, barriers and write-through machinery.

// ReadRef loads the reference at byte offset off of obj.
func (m *Mutator) ReadRef(obj heap.Addr, off int) heap.Addr { return m.v.readRef(m.clk, obj, off) }

// WriteRef stores a reference, applying the generational write barrier.
func (m *Mutator) WriteRef(obj heap.Addr, off int, val heap.Addr) {
	m.v.writeRef(m.clk, m.mc, obj, off, val)
}

// ReadWord loads a scalar word field.
func (m *Mutator) ReadWord(obj heap.Addr, off int) uint64 { return m.v.readWord(m.clk, obj, off) }

// WriteWord stores a scalar word field.
func (m *Mutator) WriteWord(obj heap.Addr, off int, val uint64) { m.v.writeWord(m.clk, obj, off, val) }

// ArrayRef loads element i of a reference array.
func (m *Mutator) ArrayRef(arr heap.Addr, i int) heap.Addr { return m.v.arrayRef(m.clk, arr, i) }

// SetArrayRef stores element i of a reference array with the barrier.
func (m *Mutator) SetArrayRef(arr heap.Addr, i int, val heap.Addr) {
	m.v.setArrayRef(m.clk, m.mc, arr, i, val)
}

// ArrayByte loads byte i of a scalar byte array.
func (m *Mutator) ArrayByte(arr heap.Addr, i int) byte { return m.v.arrayByte(m.clk, arr, i) }

// SetArrayByte stores byte i of a scalar byte array.
func (m *Mutator) SetArrayByte(arr heap.Addr, i int, b byte) { m.v.setArrayByte(m.clk, arr, i, b) }

// ArrayLen returns the element count of the array at arr.
func (m *Mutator) ArrayLen(arr heap.Addr) int { return m.v.ArrayLen(arr) }

// AddRoot registers a host-side root slot.
func (m *Mutator) AddRoot(slot *heap.Addr) { m.v.AddRoot(slot) }

// RemoveRoot unregisters a root slot.
func (m *Mutator) RemoveRoot(slot *heap.Addr) { m.v.RemoveRoot(slot) }

// Pin marks the object immovable.
func (m *Mutator) Pin(a heap.Addr) { m.v.Pin(a) }

// Work charges n units of application compute to the cost model.
func (m *Mutator) Work(n int) { m.clk.Charge(stats.EvMutatorOp, uint64(n)) }
