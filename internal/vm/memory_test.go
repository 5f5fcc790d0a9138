package vm

import (
	"math/rand"
	"testing"

	"wearmem/internal/core"
	"wearmem/internal/failmap"
	"wearmem/internal/heap"
	"wearmem/internal/kernel"
	"wearmem/internal/stats"
)

func poolUnderTest(t *testing.T, budgetBytes int, rate float64, compensate bool) (*poolMemory, *kernel.Kernel) {
	t.Helper()
	clock := stats.NewClock(stats.DefaultCosts())
	poolPages := 4096
	var inject *failmap.Map
	if rate > 0 {
		inject = failmap.New(poolPages * failmap.PageSize)
		failmap.GenerateUniform(inject, rate, rand.New(rand.NewSource(5)))
	}
	kern := kernel.New(kernel.Config{PCMPages: poolPages, Inject: inject, Clock: clock})
	return newPoolMemory(kern, heap.NewSpaceBelow(heap.Addr(kern.VirtualLimit())), 32<<10, budgetBytes, true, compensate), kern
}

func TestPoolBlockSlotReuse(t *testing.T) {
	m, _ := poolUnderTest(t, 1<<20, 0, false)
	b1, err := m.AcquireBlock(false)
	if err != nil {
		t.Fatal(err)
	}
	m.ReleaseBlock(b1)
	b2, err := m.AcquireBlock(false)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Base != b1.Base {
		t.Fatalf("slot not reused: %#x then %#x", b1.Base, b2.Base)
	}
}

func TestPoolBudgetEnforced(t *testing.T) {
	m, _ := poolUnderTest(t, 64<<10, 0, false) // exactly 2 blocks
	if _, err := m.AcquireBlock(false); err != nil {
		t.Fatal(err)
	}
	b2, err := m.AcquireBlock(false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AcquireBlock(false); err != core.ErrHeapFull {
		t.Fatalf("third block: err = %v, want ErrHeapFull", err)
	}
	m.ReleaseBlock(b2)
	if _, err := m.AcquireBlock(false); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestPoolCompensatedBlockCost(t *testing.T) {
	// At ~25% line failures, a compensated block charges ~75% of its raw
	// size, so the same byte budget holds more blocks.
	count := func(compensate bool) int {
		m, _ := poolUnderTest(t, 8*32<<10, 0.25, compensate)
		n := 0
		for {
			if _, err := m.AcquireBlock(false); err != nil {
				return n
			}
			n++
		}
	}
	raw, comp := count(false), count(true)
	if raw != 8 {
		t.Fatalf("uncompensated count = %d, want 8", raw)
	}
	if comp <= raw {
		t.Fatalf("compensated count %d should exceed raw %d", comp, raw)
	}
}

func TestPoolLOSExtentCoalescing(t *testing.T) {
	m, _ := poolUnderTest(t, 1<<20, 0, false)
	a, _, err := m.AcquirePages(4, false)
	if err != nil {
		t.Fatal(err)
	}
	// Split releases must coalesce back into one extent.
	m.ReleasePages(a, 2)
	m.ReleasePages(a+2*failmap.PageSize, 2)
	if m.PoolExtents() != 1 {
		t.Fatalf("extents = %d after adjacent releases, want 1", m.PoolExtents())
	}
	b, _, err := m.AcquirePages(4, false)
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Fatalf("coalesced extent not reused: %#x vs %#x", b, a)
	}
}

func TestPoolLOSDoesNotFragmentBlocks(t *testing.T) {
	// Interleave block and page traffic: block capacity must be exactly
	// restored after releases regardless of LOS churn.
	m, _ := poolUnderTest(t, 1<<20, 0, false)
	var blocks []core.BlockMem
	var losBases []heap.Addr
	for i := 0; i < 8; i++ {
		b, err := m.AcquireBlock(false)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
		p, _, err := m.AcquirePages(3, false)
		if err != nil {
			t.Fatal(err)
		}
		losBases = append(losBases, p)
	}
	for _, b := range blocks {
		m.ReleaseBlock(b)
	}
	for _, p := range losBases {
		m.ReleasePages(p, 3)
	}
	got := 0
	for {
		if _, err := m.AcquireBlock(false); err != nil {
			break
		}
		got++
	}
	if got < 8 {
		t.Fatalf("only %d blocks available after full release; LOS churn fragmented the block arena", got)
	}
}

func TestPoolBorrowedPagesCostDouble(t *testing.T) {
	// 50% failures: no perfect pages in the pool, so perfect requests
	// borrow DRAM. A loaned page costs double while in use (the page plus
	// the debit-credit space penalty) and the penalty lifts on release.
	m, kern := poolUnderTest(t, 1<<20, 0.5, true)
	before := m.FreeBudgetPages()
	p, _, err := m.AcquirePages(2, true)
	if err != nil {
		t.Fatal(err)
	}
	if kern.Borrows() != 2 {
		t.Fatalf("borrows = %d, want 2", kern.Borrows())
	}
	if got := m.FreeBudgetPages(); got != before-4 {
		t.Fatalf("allowance while borrowed = %d, want %d (2 pages at double cost)", got, before-4)
	}
	m.ReleasePages(p, 2)
	if got := m.FreeBudgetPages(); got != before {
		t.Fatalf("allowance after release = %d, want %d (loan returned)", got, before)
	}
	// Reusing the loaned pages from the pool charges double again.
	q, _, err := m.AcquirePages(2, true)
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Fatalf("loaned extent not reused: %#x vs %#x", q, p)
	}
	if got := m.FreeBudgetPages(); got != before-4 {
		t.Fatalf("allowance on reuse = %d, want %d", got, before-4)
	}
	if kern.Borrows() != 2 {
		t.Fatal("reuse must not borrow fresh DRAM")
	}
}

func TestPoolPerfectBlockSelection(t *testing.T) {
	m, _ := poolUnderTest(t, 1<<20, 0.3, true)
	// Acquire several relaxed blocks; release them; then a perfect request
	// must either reuse a clean slot or map fresh perfect memory — never
	// return a slot with failures.
	var blocks []core.BlockMem
	for i := 0; i < 6; i++ {
		b, err := m.AcquireBlock(false)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	for _, b := range blocks {
		m.ReleaseBlock(b)
	}
	pb, err := m.AcquireBlock(true)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Fail != nil {
		t.Fatal("perfect block request returned imperfect memory")
	}
}

// fullyFailed builds a failure map with every line dead, the retirement
// trigger in ReleaseBlock.
func fullyFailed(size int) *failmap.Map {
	fm := failmap.New(size)
	for l := 0; l < fm.Lines(); l++ {
		fm.SetLineFailed(l)
	}
	return fm
}

// A block whose every line failed is retired, not recycled: it never
// re-enters the pool and its charge stays deducted (that shrinkage is the
// wear-out effect under study). A block mapped after mass retirement is
// fresh and charged a whole clean block.
func TestPoolRetiredBlocksStayOut(t *testing.T) {
	const heapBytes, retired = 16 << 20, 256 // 2048 pages of retired blocks
	m, _ := poolUnderTest(t, heapBytes, 0, true)
	dead := fullyFailed(blockSize)
	for i := 0; i < retired; i++ {
		b, err := m.AcquireBlock(false)
		if err != nil {
			t.Fatal(err)
		}
		b.Fail = dead
		m.ReleaseBlock(b)
	}
	if m.PoolPages() != 0 {
		t.Fatalf("retired blocks re-entered the pool: PoolPages = %d", m.PoolPages())
	}
	left := (heapBytes - retired*blockSize) / failmap.PageSize
	if got := m.FreeBudgetPages(); got != left {
		t.Fatalf("budget after retirement = %d pages, want %d", got, left)
	}
	b, err := m.AcquireBlock(false)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Fresh || b.Fail != nil {
		t.Fatalf("block after mass retirement: fresh=%v, failure map %v; want a fresh clean block", b.Fresh, b.Fail)
	}
	if got := left - m.FreeBudgetPages(); got != blockSize/failmap.PageSize {
		t.Fatalf("fresh block charged %d pages, want %d", got, blockSize/failmap.PageSize)
	}
}

func TestPoolSlotSelectionOrder(t *testing.T) {
	// Pin the slot-selection order: backward scan over the free slots,
	// first match wins, and removals preserve the relative order of the
	// remaining slots. The tombstone-based removal must not change the
	// sequence the old shifting delete produced.
	m, _ := poolUnderTest(t, 1<<20, 0, false)
	var bases []heap.Addr
	var blocks []core.BlockMem
	for i := 0; i < 4; i++ {
		b, err := m.AcquireBlock(false)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, b.Base)
		blocks = append(blocks, b)
	}
	a, bB, c, d := bases[0], bases[1], bases[2], bases[3]
	// Damage blocks b and d so perfect requests must skip them.
	m.NoteFailure(bB)
	m.NoteFailure(d)
	for _, b := range blocks {
		m.ReleaseBlock(b) // free slots now [a, b, c, d]
	}
	steps := []struct {
		perfect bool
		want    heap.Addr
	}{
		{true, c},  // d is damaged: skip to c
		{false, d}, // relaxed takes the newest slot
		{true, a},  // b is damaged: skip to a
		{false, bB},
	}
	for i, st := range steps {
		got, err := m.AcquireBlock(st.perfect)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if got.Base != st.want {
			t.Fatalf("step %d (perfect=%v): picked %#x, want %#x", i, st.perfect, got.Base, st.want)
		}
	}
	// Slots exhausted: the next acquire maps fresh memory above d.
	fresh, err := m.AcquireBlock(false)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Base <= d {
		t.Fatalf("expected fresh mapping above %#x, got %#x", d, fresh.Base)
	}
}

// useVirtualSpace walks k's virtual cursor up, the way a runtime that
// never reuses virtual addresses uses them up, until fewer than left bytes
// of k's virtual space remain: it maps a page, then skips to the widest
// power-of-two boundary that still leaves left bytes, a few frames in all.
func useVirtualSpace(t *testing.T, k *kernel.Kernel, left uint64) {
	t.Helper()
	for {
		r, err := k.MmapRelaxed(1)
		if err != nil {
			t.Fatal(err)
		}
		end := r.Base + uint64(r.Size())
		if k.VirtualLimit()-end < left {
			return
		}
		align := uint64(failmap.PageSize)
		for (end+2*align-1)&^(2*align-1) <= k.VirtualLimit()-left {
			align *= 2
		}
		k.AlignVirtual(align)
	}
}

// TestVirtualLimitIsHeapFull: a kernel whose virtual space is used up
// refuses the pool's mappings, relaxed and perfect alike, with budget and
// free frames to spare. The pool reports that as core.ErrHeapFull, and a
// run on either engine ends as an ordinary DNF, not a panic.
func TestVirtualLimitIsHeapFull(t *testing.T) {
	m, kern := poolUnderTest(t, 1<<20, 0, false)
	useVirtualSpace(t, kern, 32<<10)
	if _, err := m.AcquireBlock(false); err != core.ErrHeapFull {
		t.Fatalf("block past the virtual limit: err = %v, want ErrHeapFull", err)
	}
	if _, _, err := m.AcquirePages(2, true); err != core.ErrHeapFull {
		t.Fatalf("perfect pages past the virtual limit: err = %v, want ErrHeapFull", err)
	}

	for _, threaded := range []bool{false, true} {
		tv := newTestVM(t, Config{HeapBytes: 1 << 20, Collector: Immix, FailureAware: true, Threaded: threaded}, kernel.Config{})
		useVirtualSpace(t, tv.kern, 4*blockSize)
		keep := make([]heap.Addr, 0, 1<<10)
		fill := func(m *Mutator) error {
			for {
				a, err := m.NewArray(tv.blob, 1<<10)
				if err != nil {
					return err
				}
				keep = append(keep, a)
				m.AddRoot(&keep[len(keep)-1])
			}
		}
		var err error
		if threaded {
			tv.RunThreads(func() error { err = fill(tv.Mutator0()); return nil })
		} else {
			err = fill(&tv.primary)
		}
		if err != ErrOutOfMemory || !tv.OOM() {
			t.Fatalf("threaded=%v: err = %v, OOM = %v; want the DNF", threaded, err, tv.OOM())
		}
		if len(keep) == 0 || tv.mem.budgetBytes < 8*blockSize {
			t.Fatalf("threaded=%v: %d arrays live, %d bytes of budget left; want the limit, not the budget, to end the run",
				threaded, len(keep), tv.mem.budgetBytes)
		}
	}
}
