// Package probe defines the fault-injection hook points threaded through
// the runtime layers (pcm, kernel, core, vm). A Hook observes the phase
// boundaries the paper's robustness claims hinge on — bump allocation,
// block installation, tracing, evacuation, sweeping, collection start and
// end, failure up-calls and write stalls — so a campaign scheduler
// (internal/chaos) can inject dynamic line failures or buffer storms at
// adversarial instants.
//
// The hook is a single nilable function field on each layer's Config: when
// unset, every instrumented site is one nil check and charges nothing to
// the cost model, so experiment output is byte-identical with and without
// the instrumentation compiled in.
package probe

import "fmt"

// Point identifies one instrumented phase boundary.
type Point uint8

const (
	// AllocBump fires after a small-object bump allocation returned and the
	// header was initialized; addr is the object base.
	AllocBump Point = iota
	// AllocBlock fires when the allocator installs a fresh block; addr is
	// the block base.
	AllocBlock
	// GCBegin fires at the start of a collection; addr is 1 for a nursery
	// pass, 0 for a full collection.
	GCBegin
	// GCTraceMark fires per object marked in place during tracing; addr is
	// the object base.
	GCTraceMark
	// GCEvacuate fires per object evacuated during defragmentation; addr is
	// the object's old base address.
	GCEvacuate
	// GCSweepBlock fires per block visited by the sweep; addr is the block
	// base.
	GCSweepBlock
	// GCEnd fires when a collection finishes; addr is 1 for a nursery pass,
	// 0 for a full collection.
	GCEnd
	// OSUpcall fires when the kernel delivers a failure batch to the
	// runtime handler; addr is the first failed virtual address.
	OSUpcall
	// PCMFailure fires when the device parks a failed write in the failure
	// buffer; addr is the module-visible line number.
	PCMFailure
	// PCMStallRetry fires when the kernel write path observes ErrStalled
	// and begins a drain-and-retry round; addr is the module line.
	PCMStallRetry
	// GCMarkIncrement fires at the boundary of one bounded marking
	// increment (after its budgeted work, before the mutator resumes); addr
	// is 1 while marking remains unfinished, 0 when the increment completed
	// the cycle's marking.
	GCMarkIncrement
	// PolicyRemap fires after a wear-triggered frame-policy migration
	// completes (frame rotation, decoder swap, DRAM promotion); addr is
	// the virtual base address of the migrated page. Only the non-stock
	// policies fire it.
	PolicyRemap

	// NumPoints is the number of defined probe points.
	NumPoints
)

var pointNames = [NumPoints]string{
	AllocBump:       "alloc-bump",
	AllocBlock:      "alloc-block",
	GCBegin:         "gc-begin",
	GCTraceMark:     "gc-trace-mark",
	GCEvacuate:      "gc-evacuate",
	GCSweepBlock:    "gc-sweep-block",
	GCEnd:           "gc-end",
	OSUpcall:        "os-upcall",
	PCMFailure:      "pcm-failure",
	PCMStallRetry:   "pcm-stall-retry",
	GCMarkIncrement: "gc-mark-increment",
	PolicyRemap:     "policy-remap",
}

// String names the point for schedules and reproduction output.
func (p Point) String() string {
	if p < NumPoints {
		return pointNames[p]
	}
	return fmt.Sprintf("point(%d)", uint8(p))
}

// PointByName resolves a schedule name back to its Point.
func PointByName(name string) (Point, bool) {
	for p, n := range pointNames {
		if n == name {
			return Point(p), true
		}
	}
	return 0, false
}

// Hook observes instrumented phase boundaries. addr is the most relevant
// address for the point (see the Point constants); implementations must not
// assume it is an object or even mapped. Hooks run synchronously on the
// simulated runtime's call stack, so anything they trigger (injected
// failures, up-calls) re-enters the runtime exactly the way a hardware
// interrupt would.
type Hook func(p Point, addr uint64)
