// Package vm is the failure-aware managed runtime of §3.3: it wires the OS
// model, the simulated address space and a collector plan into the mutator
// -facing API the workloads program against — typed allocation, reference
// reads and writes with the generational barrier, roots, pinning, and the
// dynamic-failure up-call handler that relocates objects when PCM lines
// fail during execution.
package vm

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"wearmem/internal/core"
	"wearmem/internal/failmap"
	"wearmem/internal/heap"
	"wearmem/internal/kernel"
	"wearmem/internal/probe"
	"wearmem/internal/sched"
	"wearmem/internal/stats"
)

// CollectorKind selects the memory management algorithm (Fig. 3).
type CollectorKind int

const (
	// Immix is the full-heap mark-region collector (IX).
	Immix CollectorKind = iota
	// StickyImmix adds sticky-mark-bit generational collection (S-IX), the
	// paper's performant base for failure awareness.
	StickyImmix
	// MarkSweep is the full-heap free-list baseline (MS).
	MarkSweep
	// StickyMarkSweep is its generational variant (S-MS).
	StickyMarkSweep
)

// String names the collector like the paper's figures.
func (k CollectorKind) String() string {
	switch k {
	case Immix:
		return "IX"
	case StickyImmix:
		return "S-IX"
	case MarkSweep:
		return "MS"
	case StickyMarkSweep:
		return "S-MS"
	}
	return fmt.Sprintf("collector(%d)", int(k))
}

// Config parametrizes a VM.
type Config struct {
	// HeapBytes is the experiment heap size h (typically 2x the workload
	// minimum).
	HeapBytes int
	// Compensate enables the §6.2 heap compensation: imperfect memory is
	// charged to the heap budget by its working bytes (the exact per-block
	// form of the paper's h/(1-f)), holding usable memory constant across
	// failure rates. Uncompensated runs charge raw bytes.
	Compensate bool

	Collector    CollectorKind
	LineSize     int // Immix line size (§6.3); default 256
	FailureAware bool
	// TraceWorkers selects the number of parallel trace lanes the Immix
	// mark phase uses; 0 or 1 keeps the serial trace. Multi-mutator runs
	// default this to the mutator count.
	TraceWorkers int
	// Threaded selects the threaded execution engine: mutators run on real
	// goroutines with private clock shards, collections stop the world
	// through a rendezvous instead of the baton's parked assertion, and
	// (with TraceWorkers > 1) trace and sweep fan out across real worker
	// goroutines. Requires an Immix collector kind. Results are not
	// byte-comparable to the baton engine — only engine-invariant outcomes
	// (live census, failure outcomes, verifier cleanliness) match.
	Threaded bool
	// WallClock records wall-clock nanoseconds per collection phase in
	// GCStats. Off by default so deterministic outputs never depend on host
	// timing.
	WallClock bool
	// PauseBudget bounds the marking work of a single GC pause in simulated
	// cycles. Zero keeps the historical stop-the-world trace. Positive
	// values switch the nursery-tier collection to snapshot-at-the-beginning
	// marking: on the baton engine, bounded mark increments interleave
	// between mutator turns at allocation safepoints; on the threaded
	// engine, one concurrent marker goroutine per trace lane marks while
	// the mutators run, bounding pauses to a short initial and final mark —
	// except under WriteThrough, whose line writeback snapshots would race
	// the markers' header CASes, so collections stay stop-the-world there.
	// Requires Collector=StickyImmix — the sticky logged-bit barrier is the
	// snapshot-at-the-beginning channel.
	PauseBudget int
	// StrictSATB verifies the tri-color invariant (every reachable object
	// marked) at each incremental/concurrent final mark, panicking on a
	// violation. Test and torture configurations only; the walk is O(heap).
	StrictSATB bool
	// MarkTriggerBytes is the allocation volume since the last collection
	// that opens a new incremental/concurrent marking cycle (0 =
	// HeapBytes/4). Only meaningful with PauseBudget > 0; the torture
	// suite lowers it so small-heap campaigns cycle often.
	MarkTriggerBytes int

	Kernel *kernel.Kernel
	Clock  *stats.Clock

	// Probe observes the runtime's phase boundaries for fault-injection
	// campaigns (threaded into the collector too). Nil is free.
	Probe probe.Hook
	// WriteThrough pushes every mutator field/array store through the
	// kernel to the PCM device, applying wear and the failure-buffer
	// backpressure path (drain-and-retry on pcm.ErrStalled). Off by
	// default: the experiment harness models wear statistically and its
	// outputs must not change.
	WriteThrough bool
	// StrictRemap makes the dynamic-failure fallback for non-Immix
	// addresses perform the actual OS page replacement instead of only
	// charging its modelled cost, so the kernel failure table and the
	// mapped frames stay consistent for the torture verifier.
	StrictRemap bool
}

// plan is the collector surface the VM drives.
type plan interface {
	core.Collector
	Barrier(heap.Addr)
	Pin(heap.Addr)
}

// VM is a managed runtime instance.
type VM struct {
	cfg Config
	// threaded caches which engine eng is, for the per-store and
	// per-allocation leaves only (see engine); it leads the struct with the
	// rest of what every store reads.
	threaded bool
	// busy counts nesting into plan.Alloc/plan.Collect (and write-through
	// device writes): the baton engine queues failure up-calls arriving
	// while busy in pendingFails — the software analogue of taking the
	// interrupt with GC masked — and handles them at the next safepoint
	// (allocation or an explicit Collect). Threaded mutators do not maintain
	// it (it would race); their up-calls always queue.
	busy int
	// wt serializes write-through transactions once the threaded engine has
	// shared it (sched.Lock; write-through runtimes only). The rule:
	// whatever touches heap bytes a concurrent line writeback may snapshot
	// holds the lock across the touch and its own writeback — a store
	// (including the barrier's logged-bit CAS on the object header, since
	// snapshots read whole lines with plain loads), a pin, and object
	// initialization after a bump (fresh bytes can share a device line with
	// an object another mutator is writing back). It models the single
	// memory channel every PCM store funnels through. The store sites test
	// Shared before they lock, so the performance configurations pay one
	// branch and no defer.
	wt    sched.Lock
	model *heap.Model
	kern  *kernel.Kernel
	clock *stats.Clock
	mem   *poolMemory
	plan  plan
	roots *core.RootSet
	eng   engine

	immix *core.Immix // non-nil for Immix kinds

	// OSRemaps counts dynamic failures resolved by OS page replacement
	// (LOS pages and pinned-object fallbacks).
	OSRemaps int

	disc *discTypes // lazily registered discontiguous-array types

	// oom is atomic because threaded mutators consult it lock-free on every
	// allocation; the baton engine reads and writes it uncontended.
	oom atomic.Bool

	// failMu guards pendingFails and degraded: kernel up-calls can arrive on
	// any mutator goroutine. rootsMu serializes root registration (the trace
	// only reads roots while the world is stopped). Both stay unshared on
	// the baton engine.
	failMu, rootsMu sched.Lock
	pendingFails    []kernel.LineFailure
	inRecovery      bool
	// muts holds the attached mutators, the primary first (Attach).
	muts []*Mutator
	// markTriggerBytes is the allocation volume between incremental/
	// concurrent mark cycles (a quarter of the heap, the classic "start
	// marking well before exhaustion" heuristic) and allocSinceMark the
	// volume since the last collection, bumped lock-free by every threaded
	// mutator goroutine.
	markTriggerBytes int
	allocSinceMark   atomic.Int64
	// primary is mutator 0, the one the VM's plain entry points run as:
	// allocation context 0 (none under mark-sweep). Mutator0 returns it and
	// attaches it; it starts parked, as every attached mutator does.
	primary Mutator
	// degraded is the sticky first unrecoverable runtime error (e.g. a
	// write stalled beyond the kernel's drain-and-retry budget).
	degraded error
}

// blockSize is the paper's 32 KB Immix block (§4), the unit the pool hands
// the collector.
const blockSize = 32 << 10

// ErrOutOfMemory reports that the workload does not fit the configured
// heap (a DNF data point in the paper's graphs).
var ErrOutOfMemory = errors.New("vm: out of memory")

// gcTrace, when non-nil, receives a line per collection trigger. It is
// enabled by the -gctrace flag of wearbench/wearsim and always writes to a
// side channel such as stderr so report bytes are unaffected.
var gcTrace io.Writer

// SetGCTrace directs collection-trigger tracing to w (nil disables it).
func SetGCTrace(w io.Writer) { gcTrace = w }

// New builds a runtime over the given kernel.
func New(cfg Config) *VM {
	if cfg.HeapBytes <= 0 {
		panic("vm: HeapBytes must be positive")
	}
	if cfg.Kernel == nil || cfg.Clock == nil {
		panic("vm: Kernel and Clock are required")
	}
	if cfg.PauseBudget > 0 && cfg.Collector != StickyImmix {
		panic("vm: PauseBudget requires Collector=StickyImmix (the sticky write barrier is the SATB channel)")
	}
	space := heap.NewSpaceBelow(heap.Addr(cfg.Kernel.VirtualLimit()))
	model := &heap.Model{S: space, T: heap.NewTypeTable()}
	mem := newPoolMemory(cfg.Kernel, space, cfg.Clock, blockSize, cfg.HeapBytes, cfg.FailureAware, cfg.Compensate)
	ccfg := core.Config{
		BlockSize:    blockSize,
		LineSize:     cfg.LineSize,
		FailureAware: cfg.FailureAware,
		Generational: cfg.Collector == StickyImmix || cfg.Collector == StickyMarkSweep,
		TraceWorkers: cfg.TraceWorkers,
		Threaded:     cfg.Threaded,
		WallClock:    cfg.WallClock,
		StrictSATB:   cfg.StrictSATB,
		Clock:        cfg.Clock,
		Model:        model,
		Mem:          mem,
		Probe:        cfg.Probe,
	}
	v := &VM{
		cfg:              cfg,
		clock:            cfg.Clock,
		kern:             cfg.Kernel,
		model:            model,
		mem:              mem,
		roots:            core.NewRootSet(),
		threaded:         cfg.Threaded,
		markTriggerBytes: cfg.MarkTriggerBytes,
	}
	if v.markTriggerBytes <= 0 {
		v.markTriggerBytes = cfg.HeapBytes / 4
	}
	if cfg.Threaded {
		v.eng = newThreaded(v)
	} else {
		v.eng = &baton{v: v}
	}
	switch cfg.Collector {
	case Immix, StickyImmix:
		ix := core.NewImmix(ccfg)
		v.plan = ix
		v.immix = ix
	case MarkSweep, StickyMarkSweep:
		v.plan = core.NewMarkSweep(ccfg)
	default:
		panic(fmt.Sprintf("vm: unknown collector %d", cfg.Collector))
	}
	v.primary = Mutator{v: v, clk: v.clock, parked: true}
	if v.immix != nil {
		v.primary.mc = v.immix.Context0()
	}
	if cfg.FailureAware {
		cfg.Kernel.RegisterFailureHandler(v)
	}
	if cfg.Probe != nil || cfg.WriteThrough {
		// Only instrumented or write-through runtimes can see a line fail
		// between the bump and the first store of the new address; the
		// statistical-wear harness cannot, and its golden outputs must not
		// shift by the extra root.
		v.roots.Add(&v.primary.newborn)
	}
	return v
}

// Close ends the runtime's life and hands its address space back for the
// next runtime to adopt (heap.Space.Release). Call it once nothing will
// read the heap again; any later heap access panics. A threaded runtime
// whose last RunThreads batch failed keeps its space, which the host
// garbage collector reclaims with the VM. Closing twice is harmless.
func (v *VM) Close() {
	if t, ok := v.eng.(*threaded); ok && t.unjoined {
		return
	}
	v.model.S.Release()
}

// Model exposes the object model (type registration and raw access).
func (v *VM) Model() *heap.Model { return v.model }

// Clock exposes the cost model clock.
func (v *VM) Clock() *stats.Clock { return v.clock }

// Kernel exposes the OS the runtime runs on.
func (v *VM) Kernel() *kernel.Kernel { return v.kern }

// GCStats exposes collection statistics.
func (v *VM) GCStats() *core.GCStats { return v.plan.Stats() }

// GCCycles returns the total simulated cycles spent in collections so
// far, the basis of per-operation GC-pause attribution: the delta across
// an operation is the pause time the operation absorbed.
func (v *VM) GCCycles() stats.Cycles { return v.plan.Stats().TotalGCCycles }

// OOM reports whether an allocation has failed permanently; the run is a
// DNF at this heap size.
func (v *VM) OOM() bool { return v.oom.Load() }

// Roots exposes the root set (verifiers walk the heap from it).
func (v *VM) Roots() *core.RootSet { return v.roots }

// Plan exposes the collector behind the VM.
func (v *VM) Plan() core.Collector { return v.plan }

// Immix returns the Immix plan, or nil for mark-sweep configurations.
func (v *VM) Immix() *core.Immix { return v.immix }

// PendingRecovery reports whether failure handling is queued or in flight:
// a dynamic failure arrived mid-allocation/mid-collection and its
// evacuating collection has not completed yet. Heap verifiers skip the
// failed-line overlap invariant in this window — the overlap is the very
// condition the pending recovery exists to clear.
func (v *VM) PendingRecovery() bool {
	v.failMu.Lock()
	defer v.failMu.Unlock()
	return v.inRecovery || len(v.pendingFails) > 0
}

// Degraded returns nil while the runtime is healthy, or the sticky error
// that forced degraded operation — a stalled write-through
// (kernel.ErrWriteStalled) or a degraded collector plan
// (core.ErrEpochExhausted and friends).
func (v *VM) Degraded() error {
	v.failMu.Lock()
	deg := v.degraded
	v.failMu.Unlock()
	if deg != nil {
		return deg
	}
	return v.plan.Degraded()
}

// drainPendingFails handles the failure batches that queued while up-calls
// were masked, until none remain. Called where a collection is permitted:
// by the engines' poll and exclusive. The queue is taken under failMu but
// handled outside it, so the kernel may deliver further up-calls from the
// handling itself (evacuating collections write to PCM) without
// deadlocking.
func (v *VM) drainPendingFails() {
	for {
		v.failMu.Lock()
		batch := v.pendingFails
		v.pendingFails = nil
		v.failMu.Unlock()
		if len(batch) == 0 {
			return
		}
		v.handleFailuresNow(batch)
	}
}

// collectGuarded runs a collection with re-entrancy protection: failures
// injected mid-collection queue for the next safepoint instead of
// re-entering the collector. It first asserts the stop-the-world condition:
// the caller holds the engine's collection right.
func (v *VM) collectGuarded(full bool) {
	v.eng.assertExclusive()
	v.busy++
	v.plan.Collect(full, v.roots)
	v.busy--
	// A completed collection restarts the incremental/concurrent trigger
	// window: marking earns its bounded pauses only when a quarter-heap of
	// fresh allocation separates it from the last cycle.
	v.allocSinceMark.Store(0)
}

// FinishMark completes any in-flight marking cycle — on the baton engine
// an unbounded final increment plus the final-mark pause, on the threaded
// engine a stop-the-world join of the markers plus the final mark. The
// harness calls it before verification and reporting so census and heap
// checks never observe a half-marked cycle; it is a no-op when marking is
// idle (including when the failure recovery it runs first already closed
// the window).
func (v *VM) FinishMark() {
	if v.immix == nil || !v.immix.Marking() {
		return
	}
	v.eng.exclusive(func() { v.immix.CompleteMark(v.roots) })
}

// allocGuarded runs one allocation attempt with re-entrancy protection. On
// the baton engine the busy counter queues failure up-calls; the threaded
// engine keeps none (it would race across mutator goroutines) — it queues
// every up-call unconditionally and drains the queue under stop-the-world.
func (v *VM) allocGuarded(m *Mutator, ty *heap.Type, size, n int) (a heap.Addr, err error) {
	if v.wt.Shared() {
		v.wt.Lock()
		defer v.wt.Unlock()
	}
	if !v.threaded {
		v.busy++
	}
	if m.mc != nil {
		a, err = v.immix.AllocOn(m.mc, ty, size, n)
	} else { // mark-sweep: no per-mutator contexts
		a, err = v.plan.Alloc(ty, size, n)
	}
	if !v.threaded {
		v.busy--
	}
	return a, err
}

// RegisterType registers an object type.
func (v *VM) RegisterType(ty *heap.Type) *heap.Type { return v.model.T.Register(ty) }

// AddRoot registers a host-side root slot; the collector updates it when
// the referenced object moves.
func (v *VM) AddRoot(slot *heap.Addr) {
	v.rootsMu.Lock()
	defer v.rootsMu.Unlock()
	v.roots.Add(slot)
}

// RemoveRoot unregisters a root slot.
func (v *VM) RemoveRoot(slot *heap.Addr) {
	v.rootsMu.Lock()
	defer v.rootsMu.Unlock()
	v.roots.Remove(slot)
}

// Collect forces a collection.
func (v *VM) Collect(full bool) {
	v.eng.exclusive(func() { v.collectGuarded(full) })
}

// Pin marks the object immovable.
func (v *VM) Pin(a heap.Addr) { v.eng.pin(a) }

// allocRetry is the one allocation path, on m's allocation context.
// Allocation is a GC point: the engine's poll comes before the bump, and a
// failed attempt is the engine's to answer.
func (v *VM) allocRetry(m *Mutator, ty *heap.Type, size, n int) (heap.Addr, error) {
	if v.oom.Load() {
		return 0, ErrOutOfMemory
	}
	v.eng.poll(size)
	a, err := v.allocGuarded(m, ty, size, n)
	if err != nil {
		if a, err = v.eng.recourse(m, ty, size, n, err); err != nil {
			return 0, err
		}
	}
	m.newborn = a
	if v.cfg.Probe != nil {
		v.cfg.Probe(probe.AllocBump, uint64(a))
	}
	// The probe may have injected a failure whose recovery collection
	// evacuated the fresh object; the newborn root was fixed up, the local
	// was not.
	return m.newborn, nil
}

// escalate is the collection ladder behind an allocation attempt that
// failed with err: collect, retry, collect harder, and declare the run out
// of memory when nothing helps. The caller holds the collection right — the
// baton, or the stopped world.
func (v *VM) escalate(m *Mutator, ty *heap.Type, size, n int, err error) (heap.Addr, error) {
	if gcTrace != nil {
		fmt.Fprintf(gcTrace, "GC trigger: alloc %s size=%d err=%v %s\n", ty.Name, size, err, v.MemoryDebug())
	}
	// Allocations that need a completely free block (medium objects on
	// overflow blocks) skip the first recourse, a (possibly nursery)
	// collection: nursery passes rarely produce whole free blocks.
	if !errors.Is(err, core.ErrNeedFreeBlock) {
		v.collectGuarded(false)
		if a, err := v.allocGuarded(m, ty, size, n); err == nil {
			return a, nil
		}
	}
	// Then full, defragmenting collections with a retry after each: one
	// unconditionally, then up to eight more while each flags a new
	// defragmentation candidate. A heap left with no wholly free block — by
	// bounded-pause cycles, which never evacuate, or by stop-the-world ones
	// that left every block partly live — can evacuate only into its
	// reserved headroom at first; the blocks a pass vacates become the next
	// pass's destination space. Memory pressure forfeits a pause bound: these
	// are honest stop-the-world collections, visible in the pause histograms.
	for i := 0; i < 9; i++ {
		before := v.plan.Stats().BlocksDefragmented
		v.collectGuarded(true)
		if a, err := v.allocGuarded(m, ty, size, n); err == nil {
			return a, nil
		}
		if i > 0 && v.plan.Stats().BlocksDefragmented == before {
			break
		}
	}
	v.oom.Store(true)
	return 0, ErrOutOfMemory
}

// The VM's plain entry points run as the primary mutator, Mutator0: context
// 0's allocations, charged to its clock (see Mutator for each).

// New allocates a fixed-size object of the registered type.
func (v *VM) New(ty *heap.Type) (heap.Addr, error) { return v.primary.New(ty) }

// NewArray allocates an array object of n elements.
func (v *VM) NewArray(ty *heap.Type, n int) (heap.Addr, error) { return v.primary.NewArray(ty, n) }

// MustNew allocates or panics with ErrOutOfMemory; workloads treat OOM as
// a DNF and recover at the harness boundary.
func (v *VM) MustNew(ty *heap.Type) heap.Addr { return v.primary.MustNew(ty) }

// MustNewArray allocates an array or panics with ErrOutOfMemory.
func (v *VM) MustNewArray(ty *heap.Type, n int) heap.Addr { return v.primary.MustNewArray(ty, n) }

// ReadRef loads the reference at byte offset off of obj.
func (v *VM) ReadRef(obj heap.Addr, off int) heap.Addr { return v.primary.ReadRef(obj, off) }

// WriteRef stores a reference, applying the generational write barrier.
func (v *VM) WriteRef(obj heap.Addr, off int, val heap.Addr) { v.primary.WriteRef(obj, off, val) }

// ReadWord loads a scalar word field.
func (v *VM) ReadWord(obj heap.Addr, off int) uint64 { return v.primary.ReadWord(obj, off) }

// WriteWord stores a scalar word field.
func (v *VM) WriteWord(obj heap.Addr, off int, val uint64) { v.primary.WriteWord(obj, off, val) }

// ArrayRef loads element i of a reference array.
func (v *VM) ArrayRef(arr heap.Addr, i int) heap.Addr { return v.primary.ArrayRef(arr, i) }

// SetArrayRef stores element i of a reference array with the barrier.
func (v *VM) SetArrayRef(arr heap.Addr, i int, val heap.Addr) { v.primary.SetArrayRef(arr, i, val) }

// ArrayByte loads byte i of a scalar byte array.
func (v *VM) ArrayByte(arr heap.Addr, i int) byte { return v.primary.ArrayByte(arr, i) }

// SetArrayByte stores byte i of a scalar byte array.
func (v *VM) SetArrayByte(arr heap.Addr, i int, b byte) { v.primary.SetArrayByte(arr, i, b) }

// barrier dispatches the generational write barrier: the baton engine uses
// the plan's serial barrier, the threaded engine the CAS-claiming
// barrier of the storing mutator's context.
func (v *VM) barrier(mc *core.MutatorContext, obj heap.Addr) {
	if v.threaded {
		v.immix.BarrierOn(mc, obj)
		return
	}
	v.plan.Barrier(obj)
}

// refStore performs a reference-slot store with the deletion half of the
// snapshot-at-the-beginning barrier: while a marking cycle is active, the
// overwritten referent is shaded before the new value lands, so the only
// pointer to a snapshot-live object cannot vanish into an already-scanned
// black object. Outside marking it is a plain store — the fast path costs
// one atomic flag load. The threaded engine uses atomic slot accesses here
// because concurrent markers read the same slots while mutators run.
func (v *VM) refStore(mc *core.MutatorContext, slot heap.Addr, val uint64) {
	if v.immix == nil || !v.immix.Marking() {
		v.model.S.Store64(slot, val)
		return
	}
	if v.threaded {
		old := heap.Addr(v.model.S.AtomicLoad64(slot))
		v.immix.ShadeOn(mc, old)
		v.model.S.AtomicStore64(slot, val)
		return
	}
	old := heap.Addr(v.model.S.Load64(slot))
	v.immix.Shade(old)
	v.model.S.Store64(slot, val)
}

// writeback pushes the line containing addr through the kernel to the PCM
// device, applying wear and the failure-buffer backpressure path. Failures
// the write surfaces are queued to the next safepoint (busy guard), so the
// mutator keeps the usual "objects only move at allocation points"
// contract. An unrecoverable stall degrades the runtime stickily instead
// of panicking; host memory stays authoritative, so execution continues.
func (v *VM) writeback(addr heap.Addr) {
	line := addr &^ heap.Addr(failmap.LineSize-1)
	// No busy counter on the threaded engine (its up-calls always queue),
	// and degraded is guarded by failMu there since any mutator goroutine
	// may reach here.
	if !v.threaded {
		v.busy++
	}
	err := v.kern.WriteLine(uint64(line), v.model.S.Bytes(line, failmap.LineSize))
	if !v.threaded {
		v.busy--
	}
	if err == nil {
		return
	}
	v.failMu.Lock()
	defer v.failMu.Unlock()
	if v.degraded == nil {
		v.degraded = err
	}
}

func (v *VM) boundsCheck(arr heap.Addr, i int) {
	if n := v.model.ArrayLen(arr); i < 0 || i >= n {
		panic(fmt.Sprintf("vm: index %d out of range [0,%d)", i, n))
	}
}

// HandleFailures is the kernel up-call (§3.2.2): the runtime retires the
// failed lines and relocates affected data. Failures inside the Immix
// space retire the line and, when live data is affected, trigger a
// defragmenting collection that evacuates the objects (§4.2). Failures on
// large-object pages (and any failure the collector cannot vacate) fall
// back to OS page replacement.
func (v *VM) HandleFailures(fails []kernel.LineFailure) {
	if v.eng.masked() {
		// The failure interrupted the runtime where re-entering the
		// collector would corrupt its in-flight state, so — like an
		// interrupt arriving with GC masked — the batch queues for the next
		// safepoint. The data stays readable through the failure buffer
		// meanwhile.
		v.failMu.Lock()
		v.pendingFails = append(v.pendingFails, fails...)
		v.failMu.Unlock()
		return
	}
	v.handleFailuresNow(fails)
}

func (v *VM) handleFailuresNow(fails []kernel.LineFailure) {
	v.inRecovery = true
	defer func() { v.inRecovery = false }()
	needCollect := false
	var immixFails []heap.Addr
	for _, f := range fails {
		v.mem.NoteFailure(heap.Addr(f.VAddr))
		if v.immix != nil {
			if need, handled := v.immix.HandleLineFailure(heap.Addr(f.VAddr)); handled {
				needCollect = needCollect || need
				immixFails = append(immixFails, heap.Addr(f.VAddr))
				continue
			}
		}
		// Outside the Immix space: the OS replaces the page with a perfect
		// one; the virtual address keeps working (§3.2.2 option 1).
		v.OSRemaps++
		if v.cfg.StrictRemap {
			// Perform (and charge) the actual page replacement through the
			// kernel instead of the modelled flat charge, keeping the OS
			// failure table consistent for the torture verifier.
			if _, ok := v.kern.RemapPageAt(f.VAddr); ok {
				v.mem.NoteRemap(heap.Addr(f.VAddr))
				continue
			}
		}
		v.clock.Charge1(stats.EvSwapIn)
	}
	if needCollect {
		// The affected data stays readable through the failure buffer (or
		// the OS-reconstructed DRAM page) until this collection evacuates
		// the marked objects.
		v.collectGuarded(true)
	}
	// Any failed line the collection left with live data falls back to OS
	// page replacement (§3.3.3): pinned objects the collector must not
	// move, and objects an evacuation pass could not relocate because
	// destination blocks ran out (the threaded collector cannot grow the
	// block index mid-trace, so its headroom is whatever was reserved
	// before the workers started).
	for _, addr := range immixFails {
		if v.immix.LiveOnFailedLine(addr) {
			if _, ok := v.kern.RemapPageAt(uint64(addr)); ok {
				v.immix.UnfailPage(addr)
				v.mem.NoteRemap(addr)
				v.OSRemaps++
			}
		}
	}
}

// MemoryDebug summarizes where the VM's memory currently sits (for tests
// and diagnostics).
func (v *VM) MemoryDebug() string {
	blocks, free, los := 0, 0, 0
	if v.immix != nil {
		blocks = v.immix.Blocks()
		free = v.immix.FreeBytes()
		los = v.immix.LiveLOSObjects()
	}
	return fmt.Sprintf("budget=%dp pool=%dp/%dext immixBlocks=%d immixFree=%dB los=%d",
		v.mem.FreeBudgetPages(), v.mem.PoolPages(), v.mem.PoolExtents(), blocks, free, los)
}
