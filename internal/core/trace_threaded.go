package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"wearmem/internal/heap"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
)

// The CAS-claim trace worker: every walk of the object graph that runs on
// real goroutines racing each other (and, inside a marking window, the
// mutators) goes through it — the threaded engine's stop-the-world trace
// and the concurrent markers of a marking cycle (marking.go). The
// synchronization story:
//
//   - Object claims go through the header word with CAS. An unmarked object
//     is claimed either by restamping its epoch (mark in place) or by
//     setting the transient FlagClaimBusy bit (evacuation); losers of the
//     CAS reload and either observe the new epoch, follow the published
//     forwarding header, or spin while the busy bit is set. Every object is
//     therefore scanned by exactly one worker.
//   - Line marks OR into the block bitmaps with CAS loops
//     (block.markLinesAtomic); the lazy epoch stamp is hoisted into
//     prestampBlocks before any worker starts, because a concurrent lazy
//     clear would race the atomic ORs.
//   - Evacuation space comes from the shared gc bump context under evacMu.
//     Unlike the plain tracer it never acquires fresh blocks: blockIndex
//     inserts would race the lock-free containment lookups every worker
//     depends on, so evacuation simply stops when the free and recycled
//     pools run dry (the object is marked in place instead, which the
//     plain tracer also does when space runs out). Inside a marking window
//     evacuation is off altogether, so no header is ever busy.
//   - Each worker owns a mutexed deque: the owner pushes and pops at the
//     bottom (newest, depth-first), thieves take the oldest half from the
//     top. Only owners push during a stop-the-world trace, which makes the
//     termination detector sound: a worker goes idle only with an empty
//     deque, an idle worker's deque cannot refill, so idle == workers
//     implies no work exists anywhere. Inside a marking window a mutator's
//     shade-at-cap may push after the markers exited; FinishMark re-drains.
//   - Workers charge private clock shards and private stat shards, merged
//     in worker order after the join; after a stop-the-world trace
//     simulated time advances by the critical path exactly like the
//     deterministic lanes. Wall-clock parallelism is real; simulated cycles
//     stay comparable.
//
// The marking order — and therefore evacuation destinations, heap layout
// and order-dependent counters — is scheduling-dependent. The engine
// cross-check suite pins down what must NOT vary: the live-object census,
// failure outcomes and verifier cleanliness (see internal/harness's
// engine differential test).

// traceWorker is one CAS-claim trace worker: a deque of gray objects plus
// private clock and statistic shards.
type traceWorker struct {
	t       *casTrace
	id      int
	clock   *stats.Clock
	scanbuf []heap.Addr

	mu    sync.Mutex
	deque []heap.Addr // owner pushes/pops the end; thieves take the front

	steals uint64

	objectsMarked    uint64
	bytesMarked      uint64
	objectsEvacuated uint64
	bytesEvacuated   uint64
}

func (w *traceWorker) push(a heap.Addr) {
	w.mu.Lock()
	w.deque = append(w.deque, a)
	w.mu.Unlock()
}

func (w *traceWorker) pop() (heap.Addr, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.deque)
	if n == 0 {
		return 0, false
	}
	a := w.deque[n-1]
	w.deque = w.deque[:n-1]
	return a, true
}

func (w *traceWorker) size() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.deque)
}

// stealFrom moves the oldest half of v's deque into w's. Reports whether
// anything moved.
func (w *traceWorker) stealFrom(v *traceWorker) bool {
	v.mu.Lock()
	n := len(v.deque)
	if n == 0 {
		v.mu.Unlock()
		return false
	}
	half := (n + 1) / 2
	grab := append([]heap.Addr(nil), v.deque[:half]...)
	v.deque = append(v.deque[:0], v.deque[half:]...)
	v.mu.Unlock()
	w.mu.Lock()
	w.deque = append(w.deque, grab...)
	w.mu.Unlock()
	return true
}

// foldStats adds the worker's statistic shards to g.
func (w *traceWorker) foldStats(g *GCStats) {
	g.TraceSteals += w.steals
	g.ObjectsMarked += w.objectsMarked
	g.BytesMarkedLive += w.bytesMarked
	g.ObjectsEvacuated += w.objectsEvacuated
	g.BytesEvacuated += w.bytesEvacuated
}

// casTrace is the shared state of one set of CAS-claim workers.
type casTrace struct {
	ix      *Immix
	workers []*traceWorker
	// stw is set for the stop-the-world trace, whose workers evacuate
	// defragmentation candidates and fire probe hooks. Markers racing the
	// mutators do neither: addresses must stay valid, and hooks are not
	// thread-safe against mutator-side probes (injection points for that
	// mode are the STW boundaries, which is also where the chaos layer
	// defers threaded injections anyway).
	stw     bool
	nidle   atomic.Int32
	aborted atomic.Bool // a worker panicked (see idle)
	probeMu sync.Mutex  // probe hooks are not required to be thread-safe
	wg      sync.WaitGroup
	panics  []any
}

func (ix *Immix) newCASTrace(workers int, stw bool) *casTrace {
	t := &casTrace{ix: ix, stw: stw, workers: make([]*traceWorker, workers), panics: make([]any, workers)}
	for i := range t.workers {
		t.workers[i] = &traceWorker{t: t, id: i, clock: stats.NewClock(ix.clock.Costs())}
	}
	return t
}

// spawn starts one goroutine per worker running run; join waits for them.
func (t *casTrace) spawn(run func(w *traceWorker)) {
	for _, w := range t.workers {
		t.wg.Add(1)
		go func(w *traceWorker) {
			defer t.wg.Done()
			defer func() {
				if p := recover(); p != nil {
					t.panics[w.id] = p
					t.aborted.Store(true)
				}
			}()
			run(w)
		}(w)
	}
}

// join waits for the workers, re-raises the first worker panic, and merges
// the shards in id order: counts always sum; simulated time advances by the
// critical path (the slowest worker) only after a stop-the-world trace —
// markers run on spare cores while simulated time advances with the
// mutators.
func (t *casTrace) join() {
	t.wg.Wait()
	for _, p := range t.panics {
		if p != nil {
			panic(p)
		}
	}
	ix := t.ix
	var crit, work stats.Cycles
	for _, w := range t.workers {
		ix.clock.Merge(w.clock)
		crit = max(crit, w.clock.Now())
		work += w.clock.Now()
		w.foldStats(&ix.gcstats)
	}
	ix.gcstats.TraceWorkCycles += work
	ix.gcstats.TraceCritCycles += crit
	if t.stw {
		ix.clock.Advance(crit)
		ix.gcstats.ParallelTraces++
	}
}

// idle reports whether every worker is simultaneously out of work, or one
// has died: the survivors then stop, so join can re-raise its panic.
func (t *casTrace) idle() bool {
	return int(t.nidle.Load()) == len(t.workers) || t.aborted.Load()
}

// prestampBlocks stamps every block's mark bitmap at the current epoch
// before concurrent workers touch them. Stamping eagerly is semantically
// identical to the lazy stamp (a block not yet stamped this epoch has no
// meaningful marked bits), and it removes the clear/OR race.
func (ix *Immix) prestampBlocks() {
	for _, b := range ix.blocks.all {
		b.stamp(ix.epoch)
	}
}

// traceThreaded is the stop-the-world mark/evacuate phase on real worker
// goroutines.
func (ix *Immix) traceThreaded(roots *RootSet, nursery bool, workers int) {
	ix.prestampBlocks()

	// Nursery pre-partition of the modified-object buffer, single-threaded
	// before any worker runs. Old logged objects (epoch == current under
	// sticky marking) must be rescanned unconditionally — mark would
	// early-return on their epoch — and are each scanned by exactly one
	// worker (the logged bit guarantees uniqueness in the buffer). Young
	// logged objects go through the ordinary claim protocol: the threaded
	// engine marks them live, a deliberate, documented divergence from the
	// baton engine (which scans their children without retaining the object
	// itself); both engines agree on everything reachable from roots.
	var rescan, markOnly []heap.Addr
	if nursery {
		for _, obj := range ix.modbuf {
			if ix.model.Epoch(obj) == ix.epoch {
				rescan = append(rescan, obj)
			} else {
				markOnly = append(markOnly, obj)
			}
		}
	}

	t := ix.newCASTrace(workers, true)
	// Each worker takes a static share of the roots and nursery buffers
	// (dealt round-robin by index), then joins the cooperative drain.
	t.spawn(func(w *traceWorker) {
		for j := w.id; j < len(roots.slots); j += workers {
			w.clock.Charge1(stats.EvRootScan)
			if slot := roots.slots[j]; *slot != 0 {
				*slot = w.mark(*slot)
			}
		}
		for j := w.id; j < len(rescan); j += workers {
			w.scan(rescan[j])
		}
		for j := w.id; j < len(markOnly); j += workers {
			w.mark(markOnly[j])
		}
		t.drain(w)
	})
	t.join()
	ix.consumeModbuf()
}

// drain processes the worker's deque, stealing when empty, until every
// worker is simultaneously idle. See the invariant note atop the file for
// why that is a sound termination condition.
func (t *casTrace) drain(w *traceWorker) {
	for {
		if a, ok := w.pop(); ok {
			w.scan(a)
			continue
		}
		if t.steal(w) {
			continue
		}
		t.nidle.Add(1)
		for {
			if t.idle() {
				return
			}
			if t.victimHasWork(w) {
				t.nidle.Add(-1)
				break
			}
			runtime.Gosched()
		}
	}
}

func (t *casTrace) steal(w *traceWorker) bool {
	n := len(t.workers)
	for i := 1; i < n; i++ {
		v := t.workers[(w.id+i)%n]
		if w.stealFrom(v) {
			w.steals++
			return true
		}
	}
	return false
}

func (t *casTrace) victimHasWork(w *traceWorker) bool {
	for _, v := range t.workers {
		if v != w && v.size() > 0 {
			return true
		}
	}
	return false
}

func (t *casTrace) probe(kind probe.Point, addr uint64) {
	if t.ix.probe == nil || !t.stw {
		return
	}
	t.probeMu.Lock()
	t.ix.probe(kind, addr)
	t.probeMu.Unlock()
}

// scan visits the claimed object's reference slots, marking children and
// rewriting slots whose referents moved. The object belongs to exactly one
// worker (claim protocol or unique rescan entry), so its header and slots
// have a single scanner. Slot loads are atomic: inside a marking window the
// mutators store references atomically into the same slots.
func (w *traceWorker) scan(obj heap.Addr) {
	t, m := w.t, w.t.ix.model
	ty := m.TypeFromHeader(m.Header(obj))
	slots := m.RefSlotsOf(ty, obj, w.scanbuf[:0])
	w.scanbuf = slots[:0]
	for _, slot := range slots {
		w.clock.Charge1(stats.EvObjectScan)
		child := heap.Addr(m.S.AtomicLoad64(slot))
		if child == 0 {
			continue
		}
		if moved := w.mark(child); moved != child && t.stw {
			m.S.Store64(slot, uint64(moved))
		}
	}
}

// mark is the concurrent claim protocol. It returns the object's current
// address; exactly one worker wins each object and pushes it gray.
func (w *traceWorker) mark(a heap.Addr) heap.Addr {
	t, ix := w.t, w.t.ix
	for {
		h := ix.model.Header(a)
		if fwd, ok := heap.HeaderForwarded(h); ok {
			a = fwd // published after the copy's current-epoch header
			continue
		}
		if heap.HeaderBusy(h) {
			// Another worker is mid-evacuation; its result (a forwarding
			// header or an in-place restamp) appears shortly.
			runtime.Gosched()
			continue
		}
		if heap.HeaderEpoch(h) == ix.epoch {
			return a // already marked (or old, during a nursery pass)
		}
		b := ix.blockOf(a)
		if b == nil && !ix.los.contains(a) {
			panic(fmt.Sprintf("core: reference %#x outside managed space", a))
		}
		if b != nil && b.evacuate && t.stw && !heap.HeaderPinned(h) {
			if !ix.model.CasHeader(a, h, h|heap.FlagClaimBusy) {
				continue
			}
			if to, ok := w.evacuateObject(a, h); ok {
				return to
			}
			// No evacuation space: fall back to marking in place. The store
			// both restamps and clears the busy bit, releasing spinners.
			ix.model.StoreHeader(a, heap.HeaderWithEpoch(h, ix.epoch))
			w.noteMarked(a, b, h)
			return a
		}
		if !ix.model.CasHeader(a, h, heap.HeaderWithEpoch(h, ix.epoch)) {
			continue
		}
		w.noteMarked(a, b, h)
		return a
	}
}

// noteMarked records a successful in-place claim: charges, stat shards,
// atomic line marks, and the gray push when the object has reference slots.
// h is the object's pre-claim header (the type and size bits never change).
func (w *traceWorker) noteMarked(a heap.Addr, b *block, h uint64) {
	ix := w.t.ix
	w.t.probe(probe.GCTraceMark, uint64(a))
	size := heap.SizeFromHeader(h)
	w.clock.Charge1(stats.EvObjectMark)
	w.objectsMarked++
	w.bytesMarked += uint64(size)
	if b != nil {
		b.markLinesAtomic(b.mem.Base, a, size, ix.cfg.LineSize)
	}
	if ix.model.RefCountOf(ix.model.TypeFromHeader(h), a) > 0 {
		w.push(a)
	}
}

// evacuateObject copies an object the worker holds the busy claim on. On
// success the new copy's header is published before the forwarding header
// (release ordering through the atomic stores), so a racer that observes
// the forward also observes the finished copy.
func (w *traceWorker) evacuateObject(a heap.Addr, h uint64) (heap.Addr, bool) {
	ix := w.t.ix
	size := heap.SizeFromHeader(h)
	ix.evacMu.Lock()
	to, ok := ix.gcAlloc(size, false)
	ix.evacMu.Unlock()
	if !ok {
		return 0, false
	}
	w.t.probe(probe.GCEvacuate, uint64(a))
	ix.model.S.Copy(to, a, size)
	ix.model.StoreHeader(to, heap.HeaderWithEpoch(h, ix.epoch))
	ix.model.StoreHeader(a, heap.ForwardHeader(to))
	nb := ix.blockOf(to)
	nb.markLinesAtomic(nb.mem.Base, to, size, ix.cfg.LineSize)
	w.clock.Charge(stats.EvBytesCopied, uint64(size))
	w.clock.Charge1(stats.EvObjectMark)
	w.objectsMarked++
	w.bytesMarked += uint64(size)
	w.objectsEvacuated++
	w.bytesEvacuated += uint64(size)
	if ix.model.RefCountOf(ix.model.TypeFromHeader(h), to) > 0 {
		w.push(to)
	}
	return to, true
}

// ensureEvacHeadroom tops up the free pool before a threaded trace starts.
// CAS-claim workers cannot acquire fresh blocks once they run (the block
// index insert would race their lock-free containment lookups), so the
// acquisition happens here, while the world is stopped and this goroutine
// is alone — restoring the plain tracer's acquire-on-demand guarantee.
// One fresh block per evacuation candidate bounds the worst case: a
// candidate's live data always fits inside one block. Acquisition failures
// (pool budget exhausted) leave the shortfall to in-place marking and, for
// failed lines, the VM's OS-remap fallback.
func (ix *Immix) ensureEvacHeadroom() {
	need := 0
	for _, b := range ix.blocks.all {
		if b.evacuate {
			need++
		}
	}
	if need == 0 {
		return
	}
	ix.mu.Lock()
	for _, b := range ix.free {
		if b.freeLines > 0 {
			need--
		}
	}
	ix.mu.Unlock()
	for ; need > 0; need-- {
		b, err := ix.acquireBlock(ix.clock, false)
		if err != nil {
			return
		}
		ix.mu.Lock()
		ix.free = append(ix.free, b)
		ix.mu.Unlock()
	}
}

// sweepBlocksThreaded fans the per-block bitmap recomputation out across
// workers. Block sweeping is embarrassingly parallel (block.sweep touches
// only the block's own state and blocks partition by index); workers charge
// private clock shards, merged by critical path like the trace.
func (ix *Immix) sweepBlocksThreaded(workers int) int {
	blocks := ix.blocks.all
	clocks := make([]*stats.Clock, workers)
	freed := make([]int, workers)
	panics := make([]any, workers)
	var probeMu sync.Mutex // probe hooks are not required to be thread-safe
	var wg sync.WaitGroup
	for i := range clocks {
		clocks[i] = stats.NewClock(ix.clock.Costs())
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() { panics[id] = recover() }()
			for j := id; j < len(blocks); j += workers {
				if ix.probe != nil {
					probeMu.Lock()
					ix.probe(probe.GCSweepBlock, uint64(blocks[j].mem.Base))
					probeMu.Unlock()
				}
				freed[id] += ix.sweepBlock(clocks[id], blocks[j])
			}
		}(i)
	}
	wg.Wait()
	total := 0
	var crit stats.Cycles
	for i, c := range clocks {
		if panics[i] != nil {
			panic(panics[i])
		}
		total += freed[i]
		ix.clock.Merge(c)
		crit = max(crit, c.Now())
	}
	ix.clock.Advance(crit)
	return total
}
