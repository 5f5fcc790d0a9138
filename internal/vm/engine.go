package vm

import (
	"fmt"

	"wearmem/internal/heap"
	"wearmem/internal/sched"
)

// engine is the one seam between the runtime and the way its mutators
// execute. The paper has one protocol for a dynamic failure — the up-call
// (§3.2.2) is taken with collection masked, queued, and handled at the next
// safepoint by a defragmenting collection (§3.3, §4.2) — and the engine is
// where "who may collect, and what happens to a failure that arrives
// meanwhile" is written down: the baton engine below answers "whoever holds
// the scheduler baton", the threaded engine (threaded.go) "whoever stopped
// the world". New picks one from Config.Threaded; everything above the
// store and allocation leaves calls these methods and never asks which.
//
// Five leaves stay a branch on the cached VM.threaded bool, on purpose:
// barrier, refStore, writeback and allocGuarded run once per store or
// allocation and Mutator.Safepoint once per operation, where an interface
// call costs more than the work it would dispatch. seam_test.go holds that
// list closed.
type engine interface {
	// poll is the allocation safepoint, taken before a bump of size bytes:
	// queued failure batches are handled where the engine may collect, and
	// an active marking cycle makes progress.
	poll(size int)
	// recourse answers an allocation attempt that failed with err: take the
	// collection right, then walk the shared escalate ladder.
	recourse(m *Mutator, ty *heap.Type, size, n int, err error) (heap.Addr, error)
	// exclusive runs f holding the collection right, with every queued
	// failure batch handled first and up-calls that arrive meanwhile queued.
	exclusive(f func())
	// assertExclusive panics unless the caller holds the collection right.
	assertExclusive()
	// masked reports whether an up-call arriving now must queue for the next
	// safepoint instead of being handled on the spot.
	masked() bool
	// cycles reports whether marking cycles run between collections
	// (bounded-pause configurations): they never evacuate, so escalate
	// grants them the retryFullCollections recourse.
	cycles() bool
	// pin marks an object immovable against whatever else may be touching
	// its header.
	pin(a heap.Addr)
	// attach gives a new mutator the clock its accessors charge.
	attach(m *Mutator)
	// run executes body on mutators 0..k-1 (see RunMutators).
	run(k int, body func(m *Mutator, yield func()) error) error
}

// baton is the deterministic engine: mutators are coroutines taking
// round-robin turns under sched.Run, so exactly one runs at a time and it
// holds the collection right by running. Nothing is ever shared — the VM's
// locks stay unshared — and the busy counter masks up-calls that interrupt
// the runtime inside an allocation, a collection or a device write.
type baton struct {
	v *VM
	// running is the mutator holding the baton; collections assert every
	// other attached mutator is parked at a scheduler yield point.
	running *Mutator
}

func (b *baton) poll(size int) {
	b.v.drainPendingFails()
	if b.v.cfg.PauseBudget > 0 {
		b.incStep(size)
	}
}

// incStep drives the incremental marking state machine from the allocation
// safepoint: while a cycle is active it runs one bounded mark increment
// (finishing the cycle when the gray stack drains); between cycles it
// accumulates allocation volume and starts the next cycle at the trigger
// threshold. Runs under the busy guard so failure up-calls arriving from
// probe injections at increment boundaries queue for the next safepoint
// instead of re-entering the collector mid-mark.
func (b *baton) incStep(size int) {
	v := b.v
	if v.immix == nil || v.inRecovery {
		return
	}
	b.assertExclusive()
	v.busy++
	defer func() { v.busy-- }()
	if v.immix.Marking() {
		if v.immix.MarkIncrement(v.cfg.PauseBudget) {
			v.immix.FinishMark(v.roots)
		}
		return
	}
	if v.allocSinceMark.Add(int64(size)) >= int64(v.markTriggerBytes) {
		v.allocSinceMark.Store(0)
		v.immix.BeginMark(v.roots, 0)
	}
}

func (b *baton) recourse(m *Mutator, ty *heap.Type, size, n int, err error) (heap.Addr, error) {
	return b.v.escalate(m, ty, size, n, err)
}

// exclusive is "drain, then f" and nothing after: failures f surfaces wait
// for the next safepoint, which every pinned baton result depends on.
func (b *baton) exclusive(f func()) {
	b.v.drainPendingFails()
	b.v.busy++
	defer func() { b.v.busy-- }()
	f()
}

// assertExclusive panics when a collection would start while some attached
// mutator is neither the running one nor parked — the cooperative
// equivalent of a thread ignoring the stop-the-world handshake. Reaching
// it means the scheduler glue around Park/Unpark is broken, which would
// let the trace observe a half-initialized allocation.
func (b *baton) assertExclusive() {
	for _, m := range b.v.muts {
		if m != b.running && !m.parked {
			panic(fmt.Sprintf("vm: collection started while mutator %d is not at a safepoint", m.id))
		}
	}
}

func (b *baton) masked() bool { return b.v.busy > 0 }

func (b *baton) cycles() bool { return b.v.cfg.PauseBudget > 0 }

func (b *baton) pin(a heap.Addr) { b.v.plan.Pin(a) }

func (b *baton) attach(m *Mutator) { m.clk = b.v.clock }

// run gives the bodies deterministic round-robin turns: each is Unparked
// while it holds the baton, and yield parks the mutator at a safepoint,
// hands the baton over and unparks when it comes back.
func (b *baton) run(k int, body func(m *Mutator, yield func()) error) error {
	tasks := make([]sched.Func, k)
	for i := range tasks {
		m := b.v.muts[i]
		tasks[i] = func(y sched.Yielder) error {
			m.Unpark()
			// Deferred, not trailing: when another body fails, sched.Run
			// unwinds this one's coroutine out of y.Yield.
			defer m.Park()
			return body(m, func() {
				m.Park()
				y.Yield()
				m.Unpark()
			})
		}
	}
	return sched.Run(tasks...)
}

// Unpark marks the mutator as running; the baton engine's scheduler glue
// calls it when the mutator receives the baton.
func (m *Mutator) Unpark() {
	m.parked = false
	if b, ok := m.v.eng.(*baton); ok {
		b.running = m
	}
}

// Park marks the mutator as stopped at a safepoint; the scheduler glue
// calls it before yielding the baton.
func (m *Mutator) Park() {
	m.parked = true
	if b, ok := m.v.eng.(*baton); ok && b.running == m {
		b.running = nil
	}
}
