// Package core implements the paper's memory managers: the Immix
// mark-region collector with the failure-aware extensions of §4, its
// sticky-mark-bit generational variant, a segregated-fit mark-sweep
// baseline, and the shared page-grained large object space.
//
// The collectors allocate from a Memory source (implemented by internal/vm
// over the OS model) that hands out block-sized chunks of possibly
// imperfect memory plus perfect page-grained memory for fussy allocators,
// and they charge all their work to the stats cost model.
package core

import (
	"errors"
	"fmt"

	"wearmem/internal/failmap"
	"wearmem/internal/heap"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
)

// BlockMem is one block-sized chunk of mapped virtual memory together with
// its failure map (nil when the chunk is perfect).
type BlockMem struct {
	Base heap.Addr
	Fail *failmap.Map
}

// Memory supplies mapped memory to a collector. Implementations enforce
// the heap budget: ErrHeapFull signals that a collection is required, after
// which the request is retried.
type Memory interface {
	// AcquireBlock returns a fresh block. perfect demands failure-free
	// memory (satisfied from perfect PCM or borrowed DRAM with the
	// debit-credit penalty).
	AcquireBlock(perfect bool) (BlockMem, error)
	// AcquirePages returns n virtually contiguous pages for the large
	// object space.
	AcquirePages(n int, perfect bool) (heap.Addr, error)
	// ReleaseBlock returns a completely free block to the global pool.
	ReleaseBlock(BlockMem)
	// ReleasePages returns a large object's pages to the global pool.
	ReleasePages(base heap.Addr, n int)
}

// ErrHeapFull is returned by allocation when the heap budget is exhausted;
// the caller must collect and retry.
var ErrHeapFull = errors.New("core: heap full, collection required")

// ErrNeedFreeBlock wraps ErrHeapFull for allocations that can only be
// satisfied by a completely free block (overflow allocation for medium
// objects). A nursery collection rarely produces whole free blocks, so the
// caller should escalate straight to a full, defragmenting collection.
var ErrNeedFreeBlock = fmt.Errorf("need a completely free block: %w", ErrHeapFull)

// ErrMarkInProgress wraps ErrHeapFull for block acquisitions refused
// because a concurrent marking window is open (the block index must not
// grow under the racing marker goroutines). The allocation slow path stops
// the world, finalizes the marking cycle, and retries.
var ErrMarkInProgress = fmt.Errorf("concurrent mark in progress, finalize required: %w", ErrHeapFull)

// ErrOutOfMemory is returned when a collection did not reclaim enough
// memory to satisfy an allocation (the configuration does not complete at
// this heap size — a DNF in the paper's figures).
var ErrOutOfMemory = errors.New("core: out of memory")

// ErrEpochExhausted marks a plan whose 16-bit mark epoch wrapped. The plan
// degrades instead of panicking: collection becomes a no-op and allocation
// keeps working until the heap genuinely fills, at which point the caller
// observes ErrOutOfMemory wrapping this error through Degraded().
var ErrEpochExhausted = errors.New("core: mark epoch exhausted")

// ErrPerfectBlockUnfit marks the (should-be-impossible) state where even a
// freshly acquired perfect block cannot host a medium object; surfaced as
// a degraded error rather than a panic so a torture campaign reports it as
// a finding instead of crashing the harness.
var ErrPerfectBlockUnfit = errors.New("core: perfect block cannot fit a medium object")

// Collector is the interface shared by the Immix and mark-sweep plans.
type Collector interface {
	// Alloc allocates an object of type ty with the given total size (and
	// element count for arrays), returning ErrHeapFull when a collection
	// is needed first.
	Alloc(ty *heap.Type, size, arrayLen int) (heap.Addr, error)
	// Collect performs a garbage collection. full forces a full-heap
	// trace; otherwise generational plans may run a nursery pass.
	Collect(full bool, roots *RootSet)
	// Stats returns collection statistics.
	Stats() *GCStats
	// Model returns the object model the plan allocates into.
	Model() *heap.Model
	// Degraded returns nil while the plan is healthy, or the sticky error
	// that forced it into degraded operation (e.g. ErrEpochExhausted).
	// A degraded plan still serves reads and allocations on a best-effort
	// basis but no longer collects.
	Degraded() error
}

// RootSet holds the mutator's root slots. Roots are host-side words holding
// heap addresses; collectors read and update them when objects move.
type RootSet struct {
	slots []*heap.Addr
}

// NewRootSet returns an empty root set.
func NewRootSet() *RootSet { return &RootSet{} }

// Add registers a root slot.
func (r *RootSet) Add(slot *heap.Addr) { r.slots = append(r.slots, slot) }

// Remove unregisters a root slot.
func (r *RootSet) Remove(slot *heap.Addr) {
	for i, s := range r.slots {
		if s == slot {
			r.slots[i] = r.slots[len(r.slots)-1]
			r.slots = r.slots[:len(r.slots)-1]
			return
		}
	}
}

// Len returns the number of registered roots.
func (r *RootSet) Len() int { return len(r.slots) }

// Each visits every root slot.
func (r *RootSet) Each(f func(slot *heap.Addr)) {
	for _, s := range r.slots {
		f(s)
	}
}

// GCStats accumulates collection behaviour for reporting.
type GCStats struct {
	Collections      int
	FullCollections  int
	NurseryGCs       int
	ObjectsMarked    uint64
	BytesMarkedLive  uint64
	BytesEvacuated   uint64
	ObjectsEvacuated uint64
	DynamicFailures  int
	PinnedSkips      uint64
	// BytesReclaimed accumulates the space each sweep newly made available.
	BytesReclaimed uint64
	// LinesReclaimed is BytesReclaimed in Immix lines (zero for plans
	// without a line structure).
	LinesReclaimed uint64
	// BlocksDefragmented counts blocks flagged as evacuation candidates,
	// whether by the opportunistic defragmentation policy or by a dynamic
	// line failure.
	BlocksDefragmented int
	// LastGCCycles is the simulated duration of the most recent
	// collection, the paper's §4.2 failure-handling cost estimate.
	LastGCCycles stats.Cycles
	// MaxGCCycles is the worst observed collection duration.
	MaxGCCycles stats.Cycles
	// TotalGCCycles accumulates time spent collecting.
	TotalGCCycles stats.Cycles
	// TraceCycles and SweepCycles split TotalGCCycles into the mark/
	// evacuate phase and the reclamation phase.
	TraceCycles stats.Cycles
	SweepCycles stats.Cycles
	// TraceWorkCycles and TraceCritCycles describe parallel traces:
	// the total marking work summed over all lanes versus the critical
	// path (the slowest lane per collection, which is what simulated
	// time actually advances by). Their ratio is the trace-phase
	// speedup. Both stay zero for serial traces.
	TraceWorkCycles stats.Cycles
	TraceCritCycles stats.Cycles
	// TraceSteals counts gray-stack segments moved between lanes by the
	// deterministic work-stealing drain (or, on the threaded engine, deque
	// segments moved between real worker goroutines).
	TraceSteals uint64
	// ParallelTraces counts collections that used the parallel trace.
	ParallelTraces int
	// WallGCNS, WallTraceNS and WallSweepNS accumulate real wall-clock
	// nanoseconds for collections and their phases, populated only when
	// Config.WallClock is set (host timing must never leak into
	// deterministic outputs).
	WallGCNS    int64
	WallTraceNS int64
	WallSweepNS int64
	// PauseHist is the histogram of every mutator-visible pause in
	// simulated cycles: whole STW collections, and under incremental or
	// concurrent marking each bounded increment and each STW phase
	// separately. PauseMarkHist and PauseFinalHist isolate the bounded
	// marking increments and the final-mark/sweep STW phases so the
	// pausecurve experiment can report per-phase quantiles.
	PauseHist      stats.Histogram
	PauseMarkHist  stats.Histogram
	PauseFinalHist stats.Histogram
	// MarkIncrements counts bounded marking increments; IncrementalCycles
	// and ConcurrentCycles count collection cycles that ran incrementally
	// (baton) or with concurrent markers (threaded).
	MarkIncrements    int
	IncrementalCycles int
	ConcurrentCycles  int
	// ModbufHighWater is the largest modified-object buffer length
	// observed at a barrier append; ForcedModbufDrains counts barrier
	// appends that hit the ModbufCap while marking was active and moved
	// the buffer to the collector's rescan list early.
	ModbufHighWater    int
	ForcedModbufDrains int
}

// recordPause accounts one mutator-visible pause. STW collections record
// their whole duration here; incremental and concurrent cycles record each
// bounded increment and each STW phase separately, so MaxGCCycles is the
// worst *pause* rather than the worst cycle — exactly the quantity a pause
// budget bounds.
func (g *GCStats) recordPause(c stats.Cycles) {
	g.LastGCCycles = c
	g.TotalGCCycles += c
	if c > g.MaxGCCycles {
		g.MaxGCCycles = c
	}
	g.PauseHist.Record(c)
}

// nurseryYield is the fraction of the usable heap a nursery collection must
// free to avoid escalating to a full collection.
const nurseryYield = 0.08

// Config parametrizes a collector.
type Config struct {
	// BlockSize is the Immix block size; default 32 KB.
	BlockSize int
	// LineSize is the Immix logical line size; default 256 B.
	LineSize int
	// LOSThreshold routes objects of at least this size to the large
	// object space; default 8 KB.
	LOSThreshold int
	// FailureAware enables the §4.2 extensions: failed line states,
	// overflow-block search, and perfect-memory requests for fussy
	// allocators.
	FailureAware bool
	// Generational enables sticky-mark-bit nursery collections.
	Generational bool
	// HeadroomBlocks reserves free blocks for defragmentation copying;
	// default 4.
	HeadroomBlocks int
	// TraceWorkers sets the number of parallel trace lanes for the mark
	// phase. 0 or 1 is the serial trace (one lane on the plan's clock);
	// higher values split the gray work across deterministic work-stealing
	// lanes whose cycles merge back as a critical path.
	TraceWorkers int
	// Threaded selects the threaded execution engine: mutator contexts are
	// driven by real goroutines, so the allocator charges per-context clock
	// shards, the write barrier logs into per-context buffers, and (with
	// TraceWorkers > 1) trace and sweep run on real worker goroutines with
	// work-stealing deques instead of the simulated lanes.
	Threaded bool
	// WallClock records wall-clock nanoseconds for each collection phase in
	// GCStats. Off by default so deterministic outputs never depend on host
	// timing.
	WallClock bool
	// ModbufCap bounds the modified-object buffer while marking is active:
	// a barrier append reaching the cap transfers the buffer to the
	// collector's rescan list instead of growing without bound (a write
	// storm then costs O(distinct logged objects), not O(writes)). Default
	// 4096. Outside an active marking window the buffer still grows freely
	// (it is consumed by the next collection).
	ModbufCap int
	// StrictSATB runs the verify.SATBClosure check at every incremental or
	// concurrent final mark, panicking on a missed object. Torture
	// campaigns enable it; experiments leave it off.
	StrictSATB bool

	Clock *stats.Clock
	Model *heap.Model
	Mem   Memory

	// Probe, when set, observes the plan's phase boundaries (allocation,
	// block installation, trace, evacuation, sweep, collection start/end)
	// for fault-injection campaigns. Nil costs one pointer check per site
	// and charges nothing.
	Probe probe.Hook
}

func (c *Config) fill() {
	if c.BlockSize == 0 {
		c.BlockSize = 32 << 10
	}
	if c.LineSize == 0 {
		c.LineSize = 256
	}
	if c.LOSThreshold == 0 {
		c.LOSThreshold = 8 << 10
	}
	if c.HeadroomBlocks == 0 {
		c.HeadroomBlocks = 4
	}
	if c.ModbufCap == 0 {
		c.ModbufCap = 4096
	}
	if c.BlockSize%failmap.PageSize != 0 {
		panic(fmt.Sprintf("core: block size %d not page-aligned", c.BlockSize))
	}
	if c.LineSize < failmap.LineSize || c.BlockSize%c.LineSize != 0 {
		panic(fmt.Sprintf("core: bad line size %d", c.LineSize))
	}
	if c.LOSThreshold > c.BlockSize {
		panic("core: LOS threshold exceeds block size")
	}
	if c.Clock == nil || c.Model == nil || c.Mem == nil {
		panic("core: Config needs Clock, Model and Mem")
	}
}
