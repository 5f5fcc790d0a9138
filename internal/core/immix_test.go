package core

import (
	"math/rand"
	"slices"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/heap"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
	"wearmem/internal/verify"
)

// barrierPlan is the mutator-facing surface shared by both plans.
type barrierPlan interface {
	Collector
	Barrier(heap.Addr)
	Pin(heap.Addr)
}

// testEnv bundles a plan with its model, roots and helpers.
type testEnv struct {
	t     *testing.T
	plan  barrierPlan
	mem   *testMem
	roots *RootSet
	clock *stats.Clock
	model *heap.Model

	node *heap.Type // 2 refs + 2 scalar words, 40 bytes
	blob *heap.Type // byte array
	refs *heap.Type // ref array
}

const (
	nodeNext = 8  // first ref
	nodeAlt  = 16 // second ref
	nodeVal  = 24 // scalar payload
)

type envOpts struct {
	generational bool
	failureAware bool
	lineSize     int
	inject       *failmap.Map
	budgetPages  int // 0 = unlimited
	marksweep    bool
	headroom     int
	traceWorkers int // 0 = serial trace
	threaded     bool
	pauseWork    int                           // > 0: bounded marking increments (needs generational)
	marking      bool                          // collect by one marking cycle even with no pauseWork
	probe        func(*stats.Clock) probe.Hook // the plan's probe, given its clock
	concMark     int                           // > 0: concurrent markers (needs generational + threaded)
	modbufCap    int
}

func newEnv(t *testing.T, o envOpts) *testEnv {
	t.Helper()
	space := heap.NewSpace()
	model := &heap.Model{S: space, T: heap.NewTypeTable()}
	clock := stats.NewClock(stats.DefaultCosts())
	budget := o.budgetPages
	if budget == 0 {
		budget = -1
	}
	cfg := Config{
		Clock:        clock,
		Model:        model,
		LineSize:     o.lineSize,
		FailureAware: o.failureAware,
		Generational: o.generational,
		TraceWorkers: o.traceWorkers,
		Threaded:     o.threaded,
		ModbufCap:    o.modbufCap,
		HeadroomBlocks: func() int {
			if o.headroom != 0 {
				return o.headroom
			}
			return 2
		}(),
	}
	if o.probe != nil {
		cfg.Probe = o.probe(clock)
	}
	mem := newTestMem(space, 32<<10, budget, o.inject)
	cfg.Mem = mem
	env := &testEnv{
		t:     t,
		mem:   mem,
		roots: NewRootSet(),
		clock: clock,
		model: model,
	}
	if o.marksweep {
		env.plan = NewMarkSweep(cfg)
	} else {
		env.plan = NewImmix(cfg)
	}
	env.node = model.T.Register(&heap.Type{
		Name: "node", Kind: heap.KindFixed, Size: 40, RefOffsets: []int{nodeNext, nodeAlt},
	})
	env.blob = model.T.Register(&heap.Type{Name: "blob", Kind: heap.KindScalarArray, ElemSize: 1})
	env.refs = model.T.Register(&heap.Type{Name: "refs", Kind: heap.KindRefArray})
	return env
}

// alloc allocates with GC-on-full retry, failing the test on OOM.
func (e *testEnv) alloc(ty *heap.Type, size, n int) heap.Addr {
	e.t.Helper()
	for attempt := 0; ; attempt++ {
		a, err := e.plan.Alloc(ty, size, n)
		if err == nil {
			return a
		}
		if attempt >= 2 {
			e.t.Fatalf("alloc %s size %d: %v", ty.Name, size, err)
		}
		e.plan.Collect(attempt > 0, e.roots)
	}
}

func (e *testEnv) newNode(val uint64) heap.Addr {
	a := e.alloc(e.node, heap.FixedSize(e.node), 0)
	e.model.S.Store64(a+nodeVal, val)
	return a
}

// setRef stores a reference with the generational barrier.
func (e *testEnv) setRef(obj heap.Addr, off int, val heap.Addr) {
	e.plan.Barrier(obj)
	e.model.S.Store64(obj+heap.Addr(off), uint64(val))
}

func (e *testEnv) getRef(obj heap.Addr, off int) heap.Addr {
	return heap.Addr(e.model.S.Load64(obj + heap.Addr(off)))
}

func (e *testEnv) addRoot(slot *heap.Addr) { e.roots.Add(slot) }

func TestImmixAllocAndRead(t *testing.T) {
	e := newEnv(t, envOpts{})
	a := e.newNode(42)
	if e.model.TypeOf(a) != e.node || e.model.S.Load64(a+nodeVal) != 42 {
		t.Fatal("allocation corrupt")
	}
	b := e.alloc(e.blob, heap.ArraySize(e.blob, 100), 100)
	if e.model.ArrayLen(b) != 100 {
		t.Fatal("array length wrong")
	}
	// Allocations are zeroed.
	for i := 0; i < 100; i++ {
		if e.model.S.Load8(b+heap.ArrayHeaderSize+heap.Addr(i)) != 0 {
			t.Fatal("allocation not zeroed")
		}
	}
}

// buildList creates a linked list of n nodes with values 0..n-1 and returns
// its head.
func (e *testEnv) buildList(n int) heap.Addr {
	var head heap.Addr
	e.roots.Add(&head) // allocations below may collect and move nodes
	defer e.roots.Remove(&head)
	for i := n - 1; i >= 0; i-- {
		a := e.newNode(uint64(i))
		e.setRef(a, nodeNext, head)
		head = a
	}
	return head
}

func (e *testEnv) checkList(head heap.Addr, n int) {
	e.t.Helper()
	a := head
	for i := 0; i < n; i++ {
		if a == 0 {
			e.t.Fatalf("list truncated at %d", i)
		}
		if got := e.model.S.Load64(a + nodeVal); got != uint64(i) {
			e.t.Fatalf("node %d has value %d", i, got)
		}
		a = e.getRef(a, nodeNext)
	}
	if a != 0 {
		e.t.Fatal("list longer than expected")
	}
}

func TestImmixCollectPreservesGraph(t *testing.T) {
	e := newEnv(t, envOpts{})
	head := e.buildList(500)
	e.addRoot(&head)
	// Garbage alongside.
	for i := 0; i < 1000; i++ {
		e.newNode(uint64(i))
	}
	marked := e.plan.Stats().ObjectsMarked
	e.plan.Collect(true, e.roots)
	e.checkList(head, 500)
	if got := e.plan.Stats().ObjectsMarked - marked; got != 500 {
		t.Fatalf("marked %d objects, want 500", got)
	}
}

func TestImmixReclaimsGarbage(t *testing.T) {
	e := newEnv(t, envOpts{budgetPages: 64}) // 8 blocks
	var keep heap.Addr
	e.addRoot(&keep)
	keep = e.newNode(7)
	// Churn far beyond the budget: reclamation must keep this running.
	for i := 0; i < 20000; i++ {
		e.newNode(uint64(i))
	}
	if e.model.S.Load64(keep+nodeVal) != 7 {
		t.Fatal("rooted object lost")
	}
	if e.plan.Stats().Collections == 0 {
		t.Fatal("no collection happened under budget pressure")
	}
}

func TestImmixCyclicGraph(t *testing.T) {
	e := newEnv(t, envOpts{})
	a := e.newNode(1)
	b := e.newNode(2)
	e.setRef(a, nodeNext, b)
	e.setRef(b, nodeNext, a) // cycle
	e.addRoot(&a)
	e.plan.Collect(true, e.roots)
	b2 := e.getRef(a, nodeNext)
	if e.model.S.Load64(b2+nodeVal) != 2 || e.getRef(b2, nodeNext) != a {
		t.Fatal("cycle broken by collection")
	}
}

func TestImmixEvacuationUpdatesRoots(t *testing.T) {
	e := newEnv(t, envOpts{})
	// Fragment: allocate interleaved keepers and garbage, then collect
	// twice so fragmented blocks become defrag candidates.
	var keepers []heap.Addr
	for i := 0; i < 400; i++ {
		n := e.newNode(uint64(i))
		if i%8 == 0 {
			keepers = append(keepers, n)
		}
		e.alloc(e.blob, heap.ArraySize(e.blob, 300), 300)
	}
	for i := range keepers {
		e.addRoot(&keepers[i])
	}
	e.plan.Collect(true, e.roots) // sweep: computes holes
	e.plan.Collect(true, e.roots) // defrag candidates selected, evacuation
	st := e.plan.Stats()
	if st.ObjectsEvacuated == 0 {
		t.Fatal("no evacuation despite fragmentation")
	}
	for i, k := range keepers {
		if got := e.model.S.Load64(k + nodeVal); got != uint64(i*8) {
			t.Fatalf("keeper %d corrupted after evacuation: %d", i, got)
		}
	}
}

func TestImmixPinnedObjectsDoNotMove(t *testing.T) {
	e := newEnv(t, envOpts{})
	var keepers []heap.Addr
	for i := 0; i < 400; i++ {
		n := e.newNode(uint64(i))
		if i%8 == 0 {
			keepers = append(keepers, n)
		}
		e.alloc(e.blob, heap.ArraySize(e.blob, 300), 300)
	}
	for i := range keepers {
		e.addRoot(&keepers[i])
		e.plan.Pin(keepers[i])
	}
	before := append([]heap.Addr(nil), keepers...)
	e.plan.Collect(true, e.roots)
	e.plan.Collect(true, e.roots)
	for i := range keepers {
		if keepers[i] != before[i] {
			t.Fatalf("pinned object %d moved %#x -> %#x", i, before[i], keepers[i])
		}
	}
}

// TestSweepKeepsBlocksLiveOnFailedLines: a pinned object marked in place on
// a failed line keeps its block through the sweep — when every line of the
// block failed, and when its one failed line is all that is live in a block
// the sweep would otherwise file free and, past the headroom, release — so
// LiveOnFailedLine finds it for the OS page remap (§3.3.3), and the verifier
// finds every reachable object in a block or the large-object space. The
// block goes once the object dies.
func TestSweepKeepsBlocksLiveOnFailedLines(t *testing.T) {
	for _, c := range []struct {
		name    string
		failAll bool
	}{{"every line failed", true}, {"one failed line above the headroom", false}} {
		t.Run(c.name, func(t *testing.T) {
			e := newEnv(t, envOpts{failureAware: true})
			ix := e.plan.(*Immix)
			// Garbage over several blocks, then the pinned node in the last
			// block acquired: the highest address, released first.
			for i := 0; i < 4000; i++ {
				e.newNode(uint64(i))
			}
			node := e.newNode(42)
			e.addRoot(&node)
			e.plan.Pin(node)
			b := ix.blockOf(node)
			lineSize := ix.cfg.LineSize
			lines := []int{int(node-b.mem.Base) / lineSize}
			if c.failAll {
				lines = lines[:0]
				for l := 0; l < b.lines; l++ {
					lines = append(lines, l)
				}
			}
			for _, l := range lines {
				ix.HandleLineFailure(b.mem.Base + heap.Addr(l*lineSize))
			}
			if ix.Blocks() <= ix.cfg.HeadroomBlocks+1 {
				t.Fatalf("set-up: %d blocks, want more than the headroom (%d) besides the node's", ix.Blocks(), ix.cfg.HeadroomBlocks)
			}
			e.plan.Collect(true, e.roots)
			if ix.blockOf(node) != b || !ix.LiveOnFailedLine(node) {
				t.Fatalf("pinned node %#x on a failed line: its block %#x was released by the sweep", node, b.mem.Base)
			}
			if slices.Contains(ix.free, b) {
				t.Fatalf("block %#x holds a live node but was filed free", b.mem.Base)
			}
			tgt := verify.Target{Model: e.model, Roots: e.roots, Views: ix.BlockViews(), Large: ix.LargeObject, Epoch: ix.Epoch()}
			if rep := verify.Heap(tgt, verify.Options{SkipFailedLine: true}); !rep.Ok() {
				t.Fatal(rep.Err())
			}
			if got := e.model.S.Load64(node + nodeVal); got != 42 {
				t.Fatalf("pinned node holds %d, want 42", got)
			}
			e.roots.Remove(&node)
			e.plan.Collect(true, e.roots)
			if ix.blockOf(node) != nil {
				t.Fatalf("block %#x outlived its last live object", b.mem.Base)
			}
		})
	}
}

func TestImmixLargeObjectSpace(t *testing.T) {
	e := newEnv(t, envOpts{})
	ix := e.plan.(*Immix)
	big := e.alloc(e.blob, heap.ArraySize(e.blob, 100<<10), 100<<10) // 100 KB
	if !ix.los.contains(big) {
		t.Fatal("100 KB object not in LOS")
	}
	e.addRoot(&big)
	e.plan.Collect(true, e.roots)
	if ix.LiveLOSObjects() != 1 {
		t.Fatalf("LOS objects = %d, want 1", ix.LiveLOSObjects())
	}
	e.roots.Remove(&big)
	e.plan.Collect(true, e.roots)
	if ix.LiveLOSObjects() != 0 {
		t.Fatal("dead large object not reclaimed")
	}
}

func TestImmixNeverAllocatesOnFailedLines(t *testing.T) {
	inject := failmap.New(4 << 20)
	failmap.GenerateUniform(inject, 0.25, rand.New(rand.NewSource(3)))
	e := newEnv(t, envOpts{failureAware: true, inject: inject, lineSize: 256})

	check := func(a heap.Addr, size int) {
		b := e.plan.(*Immix).blockOf(a)
		if b == nil {
			return // LOS: perfect pages
		}
		if b.mem.Fail == nil {
			return
		}
		off := int(a - b.mem.Base)
		if b.mem.Fail.AnyFailedIn(off, size) {
			t.Fatalf("object [%#x,+%d) overlaps failed memory", a, size)
		}
	}
	var head heap.Addr
	e.addRoot(&head)
	kept := 0
	for i := 0; i < 3000; i++ {
		size := 16 + (i%64)*8 // up to 520 B: small and medium
		a := e.alloc(e.blob, heap.ArraySize(e.blob, size), size)
		check(a, heap.ArraySize(e.blob, size))
		if i%10 == 0 {
			n := e.newNode(uint64(i))
			check(n, heap.FixedSize(e.node))
			e.setRef(n, nodeNext, head)
			head = n
			kept++
		}
	}
	e.plan.Collect(true, e.roots)
	// Walk the list: newest first, values 2990, 2980, ..., 0.
	a, want := head, 2990
	for i := 0; i < kept; i++ {
		if a == 0 {
			t.Fatalf("list truncated at %d", i)
		}
		if got := e.model.S.Load64(a + nodeVal); got != uint64(want) {
			t.Fatalf("node %d has value %d, want %d", i, got, want)
		}
		a = e.getRef(a, nodeNext)
		want -= 10
	}
}

func TestImmixOverflowPerfectFallback(t *testing.T) {
	// Every line of every injected block has a failure in its second half,
	// so no hole fits a ~6 KB medium object and the failure-aware overflow
	// allocator must request perfect blocks.
	inject := failmap.New(8 << 20)
	for l := 0; l < inject.Lines(); l += 16 {
		inject.SetLineFailed(l) // one failure per KB: max run < 1 KB
	}
	e := newEnv(t, envOpts{failureAware: true, inject: inject, lineSize: 256})
	a := e.alloc(e.blob, heap.ArraySize(e.blob, 6000), 6000)
	if a == 0 {
		t.Fatal("medium allocation failed")
	}
	b := e.plan.(*Immix).blockOf(a)
	if b == nil || b.mem.Fail != nil {
		t.Fatal("medium object should sit on a requested perfect block")
	}
}

func TestImmixDynamicFailureEvacuates(t *testing.T) {
	e := newEnv(t, envOpts{failureAware: true})
	ix := e.plan.(*Immix)
	head := e.buildList(100)
	e.addRoot(&head)
	e.plan.Collect(true, e.roots) // stamp lines live

	victim := e.getRef(head, nodeNext) // second node
	need, handled := ix.HandleLineFailure(victim)
	if !handled || !need {
		t.Fatalf("live-line failure: handled=%v need=%v", handled, need)
	}
	e.plan.Collect(true, e.roots)
	e.checkList(head, 100) // data relocated, list intact
	if ix.Stats().DynamicFailures != 1 {
		t.Fatal("dynamic failure not counted")
	}
	// The failed line must never be allocated over again.
	b := ix.blockOf(victim)
	line := int(victim-b.mem.Base) / 256
	if !b.failedAt(line) {
		t.Fatal("line not marked failed")
	}
}

func TestImmixDynamicFailureOnFreeLine(t *testing.T) {
	e := newEnv(t, envOpts{failureAware: true})
	ix := e.plan.(*Immix)
	head := e.buildList(10)
	e.addRoot(&head)
	e.plan.Collect(true, e.roots)
	// Pick an address in a known block but on a free line: allocate a probe
	// then collect so its line frees.
	probe := e.newNode(1)
	e.plan.Collect(true, e.roots)
	need, handled := ix.HandleLineFailure(probe)
	if !handled {
		t.Fatal("failure in Immix space not handled")
	}
	if need {
		t.Fatal("failure on a dead line should not force a collection")
	}
}

func TestStickyNurseryAvoidsRetracingOld(t *testing.T) {
	e := newEnv(t, envOpts{generational: true})
	head := e.buildList(2000)
	e.addRoot(&head)
	e.plan.Collect(true, e.roots) // make them old

	before := e.plan.Stats().ObjectsMarked
	// Young garbage only; nursery pass should mark nothing old.
	for i := 0; i < 500; i++ {
		e.newNode(uint64(i))
	}
	e.plan.Collect(false, e.roots)
	marked := e.plan.Stats().ObjectsMarked - before
	if marked > 100 {
		t.Fatalf("nursery pass marked %d objects; sticky marks should persist", marked)
	}
	e.checkList(head, 2000)
}

func TestStickyBarrierFindsOldToYoung(t *testing.T) {
	e := newEnv(t, envOpts{generational: true})
	old := e.newNode(1)
	e.addRoot(&old)
	e.plan.Collect(true, e.roots) // old generation

	young := e.newNode(99)
	e.setRef(old, nodeNext, young) // barrier logs old
	e.plan.Collect(false, e.roots) // nursery
	got := e.getRef(old, nodeNext)
	if got == 0 || e.model.S.Load64(got+nodeVal) != 99 {
		t.Fatal("young object reachable only through mutated old object was lost")
	}
}

func TestStickyWithoutBarrierLosesYoung(t *testing.T) {
	// Deliberately skip the barrier: the nursery collection must not find
	// the young object. This validates that the previous test exercises
	// the barrier rather than some accidental root.
	e := newEnv(t, envOpts{generational: true})
	old := e.newNode(1)
	e.addRoot(&old)
	e.plan.Collect(true, e.roots)

	young := e.newNode(99)
	e.model.S.Store64(old+nodeNext, uint64(young)) // no barrier!
	e.plan.Collect(false, e.roots)
	// The young object's line is reclaimable; allocate heavily and verify
	// the slot now dangles (epoch 0 still) — i.e. it was NOT kept live.
	if e.model.Epoch(young) != 0 {
		t.Fatal("young object was marked without a barrier; nursery trace is too conservative")
	}
}

func TestNurseryEscalatesToFullOnLowYield(t *testing.T) {
	e := newEnv(t, envOpts{generational: true})
	// Everything survives: nursery yield is ~0, forcing escalation. Enough
	// objects that the reclaimed tail of the current allocation hole stays
	// below the yield threshold.
	var keep []heap.Addr
	for i := 0; i < 30000; i++ {
		keep = append(keep, e.newNode(uint64(i)))
	}
	for i := range keep {
		e.addRoot(&keep[i])
	}
	e.plan.Collect(false, e.roots)
	if e.plan.Stats().FullCollections == 0 {
		t.Fatal("low-yield nursery did not escalate to a full collection")
	}
}

func TestImmixEpochAdvancesOnlyOnFull(t *testing.T) {
	e := newEnv(t, envOpts{generational: true})
	ix := e.plan.(*Immix)
	a := e.newNode(1)
	e.addRoot(&a)
	start := ix.Epoch()
	e.plan.Collect(true, e.roots)
	if ix.Epoch() != start+1 {
		t.Fatal("full collection must advance the epoch")
	}
	cur := ix.Epoch()
	for i := 0; i < 200; i++ {
		e.newNode(2)
	}
	e.plan.Collect(false, e.roots) // plenty young garbage: high yield
	if got := ix.Epoch(); got != cur {
		t.Fatalf("nursery collection changed epoch %d -> %d", cur, got)
	}
}

func TestImmixHeapFullAfterBudget(t *testing.T) {
	e := newEnv(t, envOpts{budgetPages: 16}) // 2 blocks
	keep := make([]heap.Addr, 0, 20000)      // preallocated: root slots must not move
	for i := range [40]int{} {
		keep = append(keep, e.newNode(uint64(i)))
	}
	for i := range keep {
		e.addRoot(&keep[i])
	}
	// Fill the rest of the heap with live data until OOM.
	for i := 0; i < 10000; i++ {
		a, err := e.plan.Alloc(e.blob, heap.ArraySize(e.blob, 1024), 1024)
		if err != nil {
			e.plan.Collect(true, e.roots)
			a, err = e.plan.Alloc(e.blob, heap.ArraySize(e.blob, 1024), 1024)
			if err != nil {
				return // correctly reported exhaustion
			}
		}
		keep = append(keep, a)
		e.addRoot(&keep[len(keep)-1])
	}
	t.Fatal("allocator never reported exhaustion on a 2-block heap")
}

func TestFalseFailuresWasteMoreAtLargerLines(t *testing.T) {
	// §6.3: the same PCM failures retire more bytes at larger Immix lines.
	inject := failmap.New(2 << 20)
	failmap.GenerateUniform(inject, 0.10, rand.New(rand.NewSource(5)))
	waste := func(lineSize int) int {
		e := newEnv(t, envOpts{failureAware: true, inject: inject, lineSize: lineSize})
		// Absorb most of the injected blocks with small allocations (large
		// ones would go to the LOS and never touch imperfect blocks).
		for i := 0; i < 3000; i++ {
			e.alloc(e.blob, heap.ArraySize(e.blob, 512), 512)
		}
		ix := e.plan.(*Immix)
		failedBytes := 0
		for _, b := range ix.blocks.all {
			failedBytes += b.failedLines * lineSize
		}
		return failedBytes
	}
	w64, w256 := waste(64), waste(256)
	if w256 <= w64 {
		t.Fatalf("false failures: 256 B lines waste %d <= 64 B lines %d", w256, w64)
	}
}

// Ordinary collection must populate the per-phase GC telemetry: the trace
// and sweep phases partition every pause exactly, and the sweep accounts
// the space it newly reclaims.
func TestGCStatsPhaseTelemetry(t *testing.T) {
	for _, marksweep := range []bool{false, true} {
		e := newEnv(t, envOpts{marksweep: marksweep, budgetPages: 64})
		var keep heap.Addr
		e.addRoot(&keep)
		keep = e.newNode(7)
		for i := 0; i < 20000; i++ {
			e.newNode(uint64(i))
		}
		gs := e.plan.Stats()
		if gs.Collections == 0 {
			t.Fatalf("marksweep=%v: no collection under budget pressure", marksweep)
		}
		if gs.TraceCycles == 0 || gs.SweepCycles == 0 {
			t.Errorf("marksweep=%v: phase cycles not recorded: trace=%d sweep=%d",
				marksweep, gs.TraceCycles, gs.SweepCycles)
		}
		if gs.TraceCycles+gs.SweepCycles != gs.TotalGCCycles {
			t.Errorf("marksweep=%v: phases do not partition pauses: trace=%d sweep=%d total=%d",
				marksweep, gs.TraceCycles, gs.SweepCycles, gs.TotalGCCycles)
		}
		if gs.BytesReclaimed == 0 {
			t.Errorf("marksweep=%v: churn reclaimed no bytes", marksweep)
		}
		if !marksweep {
			if gs.LinesReclaimed == 0 {
				t.Error("immix: churn reclaimed no lines")
			}
			if gs.ObjectsEvacuated > 0 && gs.BlocksDefragmented == 0 {
				t.Error("immix: evacuation happened with no defrag candidates counted")
			}
		}
	}
}
