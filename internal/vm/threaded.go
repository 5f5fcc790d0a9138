// The threaded execution engine: mutators run on real OS-scheduled
// goroutines, and collections stop the world through a rendezvous instead
// of the baton scheduler's parked assertion. The baton engine remains the
// deterministic oracle; this file only runs when Config.Threaded is set.
package vm

import (
	"sync"
	"sync/atomic"

	"wearmem/internal/failmap"
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

// threaded is the engine of real goroutines. The collection right is the
// stopped world; up-calls can arrive on any mutator goroutine (write-through
// stores, block fetches), where re-entering the collector would race against
// whatever the other mutators are doing, so they always queue and drain at
// the next stop-the-world point.
type threaded struct {
	v     *VM
	world world
	// markers is the concurrent marker count, derived from the
	// configuration once (see Config.PauseBudget); 0 means collections
	// stay stop-the-world.
	markers int
	// unjoined is set while a RunThreads batch is in flight and stays set
	// when the batch ends in an error or a panic: marker goroutines may
	// then still hold the address space, so Close must not recycle it.
	unjoined bool
}

// newThreaded equips v for real-goroutine mutators. It is the only code
// that shares anything (sched.Lock): the clock, the device and the VM's own
// three locks, all before a second goroutine exists.
func newThreaded(v *VM) *threaded {
	if v.cfg.Collector != Immix && v.cfg.Collector != StickyImmix {
		panic("vm: Engine=threaded requires an Immix collector")
	}
	// The shared clock picks up charges from every mutator goroutine's
	// slow paths (block fetches, kernel work).
	v.clock.SetConcurrent()
	// So does the device, when there is one: mutators store through to
	// it while others poll, snapshot or drain it.
	if dev := v.kern.Device(); dev != nil {
		dev.SetConcurrent()
	}
	v.failMu.Share()
	v.rootsMu.Share()
	if v.cfg.WriteThrough {
		v.wt.Share()
	}
	// Concurrent mutators bump-allocate into the space lock-free, so it
	// must never reallocate under them. The pool never returns virtual
	// address space, so total virtual use is bounded by the physical PCM
	// pool (plus alignment waste and borrowed DRAM); reserve generously
	// up front and freeze. Space.Ensure panics with a clear message if a
	// run ever outgrows this. The reservation is only free when the
	// space adopted a backing that already covers it: a fresh make of
	// this size is cleared, and so resident, in full.
	v.model.S.Reserve(heap.Addr((3*v.kern.PCMPages() + 4096) * failmap.PageSize))
	t := &threaded{v: v}
	if v.cfg.PauseBudget > 0 && !v.cfg.WriteThrough {
		t.markers = max(v.cfg.TraceWorkers, 1)
	}
	t.world.init()
	return t
}

// safepointPoll is the mutator-side half of the rendezvous: one atomic
// load on the fast path, parking only when a stop is pending.
func (t *threaded) safepointPoll() {
	if t.world.stopReq.Load() {
		t.world.park()
	}
}

// Safepoint is the threaded engine's explicit poll: the mutator parks
// here when another task has requested a stop-the-world. On the baton
// engine it is a no-op — parking there is the scheduler glue's job.
func (m *Mutator) Safepoint() {
	if m.v.threaded {
		m.v.eng.(*threaded).safepointPoll()
	}
}

func (t *threaded) poll(size int) {
	t.safepointPoll()
	if t.markers > 0 {
		t.concMarkStep(size)
	}
}

// concMarkStep drives the concurrent marking cycle from the allocation
// safepoint. The fast path is one atomic add (allocation-volume accounting)
// or two atomic loads (cycle active, markers still running); the world
// stops only to start a cycle at the trigger threshold or to run the final
// mark once the markers report an empty gray stack.
func (t *threaded) concMarkStep(size int) {
	v, ix := t.v, t.v.immix
	if ix.Marking() {
		if !ix.MarkDone() {
			return
		}
		t.exclusive(func() {
			// Recheck under the stopped world: another mutator may have won
			// the race and finished (or even begun the next cycle) while we
			// waited.
			if ix.Marking() && ix.MarkDone() {
				ix.FinishMark(v.roots)
			}
		})
		return
	}
	if v.allocSinceMark.Add(int64(size)) < int64(v.markTriggerBytes) {
		return
	}
	t.exclusive(func() {
		if !ix.Marking() && v.allocSinceMark.Load() >= int64(v.markTriggerBytes) {
			v.allocSinceMark.Store(0)
			ix.BeginMark(v.roots, t.markers)
		}
	})
}

// exclusive stops the world around f. Failure batches already queued are
// handled before f; those f queues (kernel up-calls from evacuation
// write-through, or probe-injected at GC boundaries) are handled before the
// world restarts, or mutators would run against failed lines the heap does
// not know about and write-through stores would stale the failure-buffer
// snapshots. The deferred start releases the world even when f panics, so
// parked mutators unwind instead of deadlocking — torture-campaign
// minimization depends on that.
func (t *threaded) exclusive(f func()) {
	t.world.stop()
	defer t.world.start()
	defer t.drain()
	t.drain()
	f()
}

// drain handles the queued failure batches under the stopped world. Markers
// keep running while it is stopped, and handling a failure retires lines and
// flags blocks they read, so an open marking cycle is completed — its
// markers joined — before the first batch is handled.
func (t *threaded) drain() {
	v := t.v
	if v.immix.Marking() && v.PendingRecovery() {
		v.immix.CompleteMark(v.roots)
	}
	v.drainPendingFails()
}

// recourse retries before it collects: another mutator's collection may
// have freed space while this one waited for the world, or the failure
// handling exclusive runs first did.
func (t *threaded) recourse(m *Mutator, ty *heap.Type, size, n int, err error) (a heap.Addr, _ error) {
	v := t.v
	t.exclusive(func() {
		if a, err = v.allocGuarded(m, ty, size, n); err == nil {
			return
		}
		if v.immix.Marking() {
			// The block index must not grow under the markers' lock-free
			// lookups (acquireBlock returns ErrMarkInProgress while a cycle is
			// active), so the cycle completes here — under the stopped world —
			// and the allocation retries against the freshly swept heap before
			// any further collection escalates.
			v.immix.CompleteMark(v.roots)
			t.drain()
			if a, err = v.allocGuarded(m, ty, size, n); err == nil {
				return
			}
		}
		a, err = v.escalate(m, ty, size, n, err)
	})
	return a, err
}

func (t *threaded) assertExclusive() { t.world.assertStopped() }

func (t *threaded) masked() bool { return true }

func (t *threaded) cycles() bool { return t.markers > 0 }

// pin sets the bit atomically — running mutators CAS header bits (barrier
// logging) — and inside the write-through transaction.
func (t *threaded) pin(a heap.Addr) {
	t.v.wt.Lock()
	defer t.v.wt.Unlock()
	t.v.model.SetPinnedAtomic(a)
}

// attach gives the mutator a private shard, which keeps the hot accessor
// path lock-free; the Immix context charges the same shard so
// allocation-time costs (line skips, overflow searches) land on the owning
// mutator.
func (t *threaded) attach(m *Mutator) {
	m.clk = stats.NewClock(t.v.clock.Costs())
	if m.mc != nil {
		m.mc.SetClock(m.clk)
	}
}

// run makes the bodies RunThreads tasks; yield is the mutator's Safepoint
// poll.
func (t *threaded) run(k int, body func(m *Mutator, yield func()) error) error {
	fns := make([]func() error, k)
	for i := range fns {
		m := t.v.muts[i]
		fns[i] = func() error { return body(m, m.Safepoint) }
	}
	return t.runThreads(fns)
}

// RunThreads executes the task functions on genuinely parallel goroutines
// with the world rendezvous armed. It is the threaded counterpart of the
// baton scheduler loop: each task typically drives one attached Mutator.
// After the tasks join, the mutators' private clock shards are merged into
// the shared clock — counts summed, simulated time advanced by the longest
// shard (the critical path) — and any failure batches still queued are
// handled with no tasks left to stop.
func (v *VM) RunThreads(fns ...func() error) error {
	t, ok := v.eng.(*threaded)
	if !ok {
		panic("vm: RunThreads requires Engine=threaded")
	}
	return t.runThreads(fns)
}

func (t *threaded) runThreads(fns []func() error) error {
	v := t.v
	t.unjoined = true
	t.world.setTotal(len(fns))
	wrapped := make([]func() error, len(fns))
	for i, fn := range fns {
		wrapped[i] = func() error {
			defer t.world.retire()
			return fn()
		}
	}
	err := sched.Parallel(wrapped...)
	if v.immix.Marking() {
		// The batch ended mid-cycle; finish it with no tasks left to stop so
		// verification and reporting never observe a half-marked heap.
		v.immix.CompleteMark(v.roots)
	}
	t.mergeMutatorClocks()
	t.drain()
	t.unjoined = err != nil
	return err
}

// mergeMutatorClocks folds every mutator's private shard into the shared
// clock: counts summed for a complete activity breakdown, time advanced by
// the slowest shard — parallel mutator work costs its critical path.
func (t *threaded) mergeMutatorClocks() {
	var crit stats.Cycles
	for _, m := range t.v.muts {
		if now := m.clk.Now(); now > crit {
			crit = now
		}
		t.v.clock.Merge(m.clk)
		m.clk.Reset()
	}
	t.v.clock.Advance(crit)
}
