// The threaded execution engine: mutators run on real OS-scheduled
// goroutines, and collections stop the world through a rendezvous instead
// of the baton scheduler's parked assertion. The baton engine remains the
// deterministic oracle; this file only runs when Config.Threaded is set.
package vm

import (
	"sync"
	"sync/atomic"

	"wearmem/internal/heap"
	"wearmem/internal/sched"
	"wearmem/internal/stats"
)

// world is the stop-the-world rendezvous. A mutator needing a collection
// calls stop(), which raises stopReq and waits until every other live
// mutator task has parked; mutators poll stopReq at safepoints (allocation
// and explicit Safepoint calls) and park until start() releases them. The
// protocol is a ragged barrier: mutators park one by one as they reach
// their next safepoint, and the initiator proceeds only when all of them
// are accounted for — parked, or already retired.
type world struct {
	mu   sync.Mutex
	cond *sync.Cond
	// stopReq is the lock-free flag mutators poll on their hot path; it is
	// raised strictly while holding mu and implies stopping.
	stopReq atomic.Bool
	// stopping is the authoritative state under mu.
	stopping bool
	// stopped counts tasks currently parked in park() (or waiting as
	// bystander initiators); total counts live tasks (setTotal minus
	// retire). The initiator itself is a live task, so stop() waits for
	// total-1 parkers.
	stopped int
	total   int
}

func (w *world) init() { w.cond = sync.NewCond(&w.mu) }

// setTotal arms the rendezvous for a RunThreads batch of n tasks.
func (w *world) setTotal(n int) {
	w.mu.Lock()
	w.total = n
	w.stopped = 0
	w.mu.Unlock()
}

// retire removes one live task (its function returned or panicked); a
// waiting initiator re-evaluates its barrier condition.
func (w *world) retire() {
	w.mu.Lock()
	w.total--
	w.cond.Broadcast()
	w.mu.Unlock()
}

// park blocks the calling mutator task while a stop is in progress. The
// outer loop re-parks immediately when another initiator wins the world
// between our wake-up and our return to mutator code.
func (w *world) park() {
	w.mu.Lock()
	for w.stopping {
		w.stopped++
		w.cond.Broadcast()
		for w.stopping {
			w.cond.Wait()
		}
		w.stopped--
	}
	w.mu.Unlock()
}

// stop brings the world to a halt and returns with the caller as the only
// running task. When two tasks race to initiate, the loser parks as a
// bystander (counted exactly like a mutator reaching a safepoint) until
// the winner's collection finishes, then initiates its own.
func (w *world) stop() {
	w.mu.Lock()
	for w.stopping {
		w.stopped++
		w.cond.Broadcast()
		for w.stopping {
			w.cond.Wait()
		}
		w.stopped--
	}
	w.stopping = true
	w.stopReq.Store(true)
	for w.stopped < w.total-1 {
		w.cond.Wait()
	}
	w.mu.Unlock()
}

// start releases a stop; parked mutators resume.
func (w *world) start() {
	w.mu.Lock()
	w.stopping = false
	w.stopReq.Store(false)
	w.cond.Broadcast()
	w.mu.Unlock()
}

// assertStopped panics unless the world is stopped (or no tasks are live,
// which makes the caller the only runnable code trivially).
func (w *world) assertStopped() {
	w.mu.Lock()
	ok := w.stopping || w.total == 0
	w.mu.Unlock()
	if !ok {
		panic("vm: threaded collection started without stopping the world")
	}
}

// safepointPoll is the mutator-side half of the rendezvous: one atomic
// load on the fast path, parking only when a stop is pending.
func (v *VM) safepointPoll() {
	if v.world.stopReq.Load() {
		v.world.park()
	}
}

// RunThreads executes the task functions on genuinely parallel goroutines
// with the world rendezvous armed. It is the threaded counterpart of the
// baton scheduler loop: each task typically drives one attached Mutator.
// After the tasks join, the mutators' private clock shards are merged into
// the shared clock — counts summed, simulated time advanced by the longest
// shard (the critical path) — and any failure batches still queued are
// handled with no tasks left to stop.
func (v *VM) RunThreads(fns ...func() error) error {
	if !v.threaded {
		panic("vm: RunThreads requires Engine=threaded")
	}
	v.unjoined = true
	v.world.setTotal(len(fns))
	wrapped := make([]func() error, len(fns))
	for i, fn := range fns {
		fn := fn
		wrapped[i] = func() error {
			defer v.world.retire()
			return fn()
		}
	}
	err := sched.Parallel(wrapped...)
	if v.immix != nil && v.immix.Marking() {
		// The batch ended mid-cycle; finish it with no tasks left to stop so
		// verification and reporting never observe a half-marked heap.
		v.immix.CompleteMark(v.roots)
	}
	v.mergeMutatorClocks()
	v.drainPendingFails()
	v.unjoined = err != nil
	return err
}

// concMarkStep drives the concurrent marking cycle from the threaded
// allocation safepoint. The fast path is one atomic add (allocation-volume
// accounting) or two atomic loads (cycle active, markers still running);
// the world stops only to start a cycle at the trigger threshold or to run
// the final mark once the markers report an empty gray stack.
func (v *VM) concMarkStep(size int) {
	ix := v.immix
	if ix.Marking() {
		if !ix.MarkDone() {
			return
		}
		v.world.stop()
		defer v.world.start()
		defer v.drainPendingFails()
		// Recheck under the stopped world: another mutator may have won the
		// race and finished (or even begun the next cycle) while we waited.
		if ix.Marking() && ix.MarkDone() {
			ix.FinishMark(v.roots)
		}
		return
	}
	if v.allocSinceMark.Add(int64(size)) < int64(v.markTriggerBytes) {
		return
	}
	v.world.stop()
	defer v.world.start()
	defer v.drainPendingFails()
	if !ix.Marking() && v.allocSinceMark.Load() >= int64(v.markTriggerBytes) {
		v.allocSinceMark.Store(0)
		ix.BeginMark(v.roots, v.concMark)
	}
}

// mergeMutatorClocks folds every mutator's private shard into the shared
// clock: counts summed for a complete activity breakdown, time advanced by
// the slowest shard — parallel mutator work costs its critical path.
func (v *VM) mergeMutatorClocks() {
	var crit stats.Cycles
	for _, m := range v.muts {
		if m.clk == nil || m.clk == v.clock {
			continue
		}
		if now := m.clk.Now(); now > crit {
			crit = now
		}
		v.clock.Merge(m.clk)
		m.clk.Reset()
	}
	v.clock.Advance(crit)
}

// drainPendingFails handles queued failure batches until none remain. The
// queue is taken under failMu but handled outside it, so the kernel may
// deliver further up-calls from the handling itself (evacuating
// collections write to PCM) without deadlocking.
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

// allocSlowThreaded is the threaded engine's prelude to the collection
// ladder: stop the world, handle queued failures, close any marking cycle,
// retrying the allocation after each, then escalate. The deferred start()
// releases the world even when a collection panics, so parked mutators
// unwind instead of deadlocking — torture-campaign minimization depends on
// that.
func (v *VM) allocSlowThreaded(m *Mutator, ty *heap.Type, size, n int) (heap.Addr, error) {
	v.world.stop()
	defer v.world.start()
	// Failure batches queued by the collections below (kernel up-calls from
	// evacuation write-through, or probe-injected at GC boundaries) must be
	// handled before the world restarts — run LIFO ahead of start().
	defer v.drainPendingFails()
	v.drainPendingFails()
	// Another mutator's collection may have freed space while we waited
	// for the world (or its failure handling above did); retry before
	// collecting again.
	a, err := v.allocGuarded(m, ty, size, n)
	if err == nil {
		return a, nil
	}
	if v.immix != nil && v.immix.Marking() {
		// The block index must not grow under the markers' lock-free lookups
		// (acquireBlock returns ErrMarkInProgress while a cycle is active), so
		// the cycle completes here — under the stopped world — and the
		// allocation retries against the freshly swept heap before any
		// further collection escalates.
		v.immix.CompleteMark(v.roots)
		v.drainPendingFails()
		if a, err = v.allocGuarded(m, ty, size, n); err == nil {
			return a, nil
		}
	}
	return v.escalate(m, ty, size, n, err)
}
