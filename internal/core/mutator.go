package core

import (
	"wearmem/internal/heap"
	"wearmem/internal/stats"
)

// MutatorContext is one mutator's private slice of the Immix allocator: a
// TLAB-style allocation context holding the bump cursor for small objects,
// the overflow cursor for medium objects, and a private recycled-block
// list. Blocks enter a context through exclusive pops from the shared
// lists (under the Immix seam lock) and leave it at the next sweep, so
// two contexts never allocate into the same block and the failed-line
// skip state (bumpCtx.nextLine) is private per mutator.
//
// A context is not safe for concurrent use by multiple goroutines. On the
// baton engine at most one mutator runs at a time; on the threaded engine
// each context is owned by exactly one goroutine, charges its own clock
// shard for the batch (SetClock) and logs barrier entries into its own
// modbuf, so the allocation and barrier fast paths stay lock-free.
type MutatorContext struct {
	id       int
	cur      bumpCtx  // small-object bump allocator
	over     bumpCtx  // overflow allocator for medium objects
	recycled []*block // blocks this context probed and kept for later holes
	// clock receives the context's allocator charges: the shared Immix
	// clock, except inside a threaded batch, where it is the owning
	// mutator's private shard, merged when the batch joins.
	clock *stats.Clock
	// modbuf holds this context's logged objects (threaded barrier); folded
	// into the shared buffer at each stop-the-world collection.
	modbuf []heap.Addr
	// satb holds the SATB deletion barrier's shaded refs (the overwritten
	// values of reference stores) while a concurrent marking window is
	// active; drained at the final-mark handshake.
	satb []heap.Addr
}

// ID returns the context's attach index (0 for the primary context).
func (mc *MutatorContext) ID() int { return mc.id }

// SetClock redirects the context's allocator charges: to a private shard
// for a threaded batch, back to the plan's clock at its join. The shard
// must use the same cost table as the plan's clock.
func (mc *MutatorContext) SetClock(c *stats.Clock) { mc.clock = c }

// NewMutatorContext attaches and returns a fresh allocation context.
// The primary context (index 0) exists from construction and backs the
// plain Alloc entry point.
func (ix *Immix) NewMutatorContext() *MutatorContext {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	mc := &MutatorContext{id: len(ix.muts), clock: ix.clock}
	ix.muts = append(ix.muts, mc)
	return mc
}

// Context0 returns the primary allocation context.
func (ix *Immix) Context0() *MutatorContext { return ix.muts[0] }
