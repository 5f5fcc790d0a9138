// Package stats provides the deterministic cost model and the statistical
// helpers used throughout the reproduction.
//
// The paper reports wall-clock time on an Intel Core i7; we have no PCM
// hardware and need exactly repeatable experiments, so simulated time is an
// integer cycle count accumulated on a Clock. Every component (mutator,
// allocator, collector, PCM device, clustering hardware, OS) charges cycles
// through a shared CostTable. All results are reported normalized to a
// baseline configuration, mirroring the paper's normalized figures.
package stats

import (
	"fmt"

	"wearmem/internal/sched"
)

// Cycles is the unit of simulated time.
type Cycles uint64

// Event identifies a chargeable activity in the system. Each event has a
// per-unit cost in the CostTable and its occurrences are counted on the
// Clock, so experiments can report both time and a full activity breakdown.
type Event int

// The chargeable events. Mutator events dominate total time; allocator and
// collector events are where failure-induced overheads appear.
const (
	// Mutator work.
	EvMutatorOp   Event = iota // one unit of application compute
	EvAllocBytes               // per byte allocated (fast path)
	EvFieldRead                // pointer/scalar field read
	EvFieldWrite               // pointer/scalar field write (barrier included)
	EvArrayAccess              // array element access (bounds check included)
	EvArrayletHop              // extra indirection through a discontiguous array spine

	// Allocator slow paths.
	EvLineSkip       // bump allocator skipped over an unavailable line run
	EvBlockFetch     // allocator fetched a recycled or free block
	EvOverflowSearch // overflow allocator searched one candidate line run
	EvFreeListAlloc  // free-list (mark-sweep) allocation
	EvLOSAlloc       // large object space page-grained allocation

	// Collector work.
	EvGCCycle      // a collection happened (fixed start/stop cost)
	EvRootScan     // one root slot examined
	EvObjectMark   // object marked live
	EvObjectScan   // per reference slot traced
	EvBytesCopied  // per byte copied during evacuation
	EvLineSweep    // per line examined while recycling blocks
	EvBlockSweep   // per block examined while recycling
	EvFreeListSwep // per cell swept in the mark-sweep collector

	// Hardware / OS.
	EvPCMWrite        // line written back to PCM
	EvRedirectHit     // redirection map lookup satisfied by the map cache
	EvRedirectMiss    // redirection map lookup requiring extra memory accesses
	EvFailBufSearch   // failure buffer associative check on a read
	EvFailBufStall    // write stalled because the failure buffer was full
	EvInterrupt       // failure interrupt delivered to the OS
	EvReverseXlate    // reverse address translation during failure handling
	EvPageBorrow      // fussy allocator borrowed a perfect page (debit)
	EvPageRepay       // relaxed allocator repaid one page of debt
	EvSyscall         // mmap / map-failures system call
	EvSwapIn          // page swapped in
	EvUpcall          // OS up-call into the runtime failure handler
	EvDynFailEvacuate // object evacuated due to a dynamic failure

	// Incremental/concurrent marking.
	EvMarkIncrement // one bounded marking increment started (start/stop cost)

	numEvents
)

var eventNames = [numEvents]string{
	"mutator.op", "alloc.bytes", "field.read", "field.write", "array.access", "arraylet.hop",
	"alloc.lineskip", "alloc.blockfetch", "alloc.overflowsearch", "alloc.freelist", "alloc.los",
	"gc.cycle", "gc.rootscan", "gc.mark", "gc.scan", "gc.copybytes", "gc.linesweep", "gc.blocksweep", "gc.freelistsweep",
	"hw.pcmwrite", "hw.redirect.hit", "hw.redirect.miss", "hw.failbuf.search", "hw.failbuf.stall",
	"os.interrupt", "os.reversexlate", "os.pageborrow", "os.pagerepay", "os.syscall", "os.swapin", "os.upcall", "os.dynfail.evacuate",
	"gc.markincrement",
}

// String returns the dotted name of the event.
func (e Event) String() string {
	if e < 0 || e >= numEvents {
		return fmt.Sprintf("event(%d)", int(e))
	}
	return eventNames[e]
}

// NumEvents is the number of distinct chargeable events.
const NumEvents = int(numEvents)

// CostTable maps each event to its cost in cycles per unit. The default
// table is calibrated so that GC work, allocation slow paths and hardware
// indirection have relative weights comparable to a real managed runtime:
// the mutator dominates, collections are expensive in proportion to live
// data, and fragmentation-induced slow paths are visible but not absurd.
type CostTable [numEvents]Cycles

// DefaultCosts returns the calibrated cost table used by all experiments.
func DefaultCosts() CostTable {
	var t CostTable
	t[EvMutatorOp] = 4
	t[EvAllocBytes] = 1
	t[EvFieldRead] = 2
	t[EvFieldWrite] = 3
	t[EvArrayAccess] = 2
	t[EvArrayletHop] = 4

	t[EvLineSkip] = 4
	t[EvBlockFetch] = 300
	t[EvOverflowSearch] = 20
	t[EvFreeListAlloc] = 14
	t[EvLOSAlloc] = 600

	t[EvGCCycle] = 40000
	t[EvRootScan] = 4
	t[EvObjectMark] = 10
	t[EvObjectScan] = 3
	t[EvBytesCopied] = 2
	t[EvLineSweep] = 1
	t[EvBlockSweep] = 14
	t[EvFreeListSwep] = 5

	t[EvPCMWrite] = 6
	t[EvRedirectHit] = 1
	t[EvRedirectMiss] = 120
	t[EvFailBufSearch] = 0
	t[EvFailBufStall] = 500
	t[EvInterrupt] = 2000
	t[EvReverseXlate] = 5000
	// Borrowing a perfect DRAM page carries the debit-credit *space*
	// penalty (handled by the VM budget) plus a time cost reflecting that
	// DRAM is scarce and displacing it risks swapping (paper SS2.3).
	t[EvPageBorrow] = 6000
	t[EvPageRepay] = 0
	t[EvSyscall] = 1500
	t[EvSwapIn] = 20000
	t[EvUpcall] = 3000
	t[EvDynFailEvacuate] = 60

	// Each bounded marking increment pays a start/stop overhead (resuming
	// the gray stack, re-arming the budget) far below a full collection's
	// fixed cost but large enough that absurdly tiny budgets lose throughput.
	t[EvMarkIncrement] = 200

	return t
}

// Clock accumulates simulated time and per-event counts. Each simulated
// system owns exactly one, single-owner until SetConcurrent shares it (the
// ownership rule is sched.Lock's): the threaded engine shares the
// kernel/device clock, while hot mutator paths charge private unshared shards.
type Clock struct {
	costs  CostTable
	now    Cycles
	counts [numEvents]uint64
	mu     sched.Lock // guards now and counts
}

// NewClock returns a Clock charging with the given cost table.
func NewClock(costs CostTable) *Clock {
	return &Clock{costs: costs}
}

// SetConcurrent equips the clock with an internal lock so concurrent
// goroutines may charge it. Enable before sharing; there is no way back.
func (c *Clock) SetConcurrent() { c.mu.Share() }

// Charge records n occurrences of event e and advances simulated time.
func (c *Clock) Charge(e Event, n uint64) {
	c.mu.Lock()
	c.counts[e] += n
	c.now += Cycles(n) * c.costs[e]
	c.mu.Unlock()
}

// Charge1 records a single occurrence of event e.
func (c *Clock) Charge1(e Event) { c.Charge(e, 1) }

// Now returns the current simulated time.
func (c *Clock) Now() Cycles {
	c.mu.Lock()
	now := c.now
	c.mu.Unlock()
	return now
}

// Count returns the number of recorded occurrences of event e.
func (c *Clock) Count(e Event) uint64 {
	c.mu.Lock()
	n := c.counts[e]
	c.mu.Unlock()
	return n
}

// Reset zeroes the clock and all counters, keeping the cost table.
func (c *Clock) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = 0
	c.counts = [numEvents]uint64{}
}

// Cost returns the per-unit cost the clock charges for event e.
func (c *Clock) Cost(e Event) Cycles { return c.costs[e] }

// Costs returns a copy of the clock's cost table, for deriving worker
// clocks that charge identically.
func (c *Clock) Costs() CostTable { return c.costs }

// Merge folds other's event counts into c without advancing simulated
// time. The parallel trace uses it to keep the activity breakdown complete
// while time advances by the critical path (Advance) instead of the sum of
// all lanes' work.
func (c *Clock) Merge(other *Clock) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := Event(0); e < numEvents; e++ {
		c.counts[e] += other.counts[e]
	}
}

// Advance moves simulated time forward by d without recording any event.
func (c *Clock) Advance(d Cycles) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
}

// Counter is one event's count in a snapshot.
type Counter struct {
	Event string `json:"event"`
	Count uint64 `json:"count"`
}

// Snapshot returns the complete per-event counter breakdown in event
// declaration order. Every event appears exactly once, including events
// with a zero count, so snapshots of two runs can be diffed entry by entry
// (a counter that went to zero reads 0 instead of disappearing) and the
// encoding is deterministic.
func (c *Clock) Snapshot() []Counter {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Counter, numEvents)
	for e := Event(0); e < numEvents; e++ {
		out[e] = Counter{Event: e.String(), Count: c.counts[e]}
	}
	return out
}
