package kernel

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"wearmem/internal/failmap"
	"wearmem/internal/pcm"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
)

func injected(pages int, rate float64, seed int64) *failmap.Map {
	m := failmap.New(pages * failmap.PageSize)
	failmap.GenerateUniform(m, rate, rand.New(rand.NewSource(seed)))
	return m
}

func TestMmapRelaxedPristinePool(t *testing.T) {
	k := New(Config{PCMPages: 16})
	r, err := k.MmapRelaxed(4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pages != 4 || r.Size() != 4*failmap.PageSize {
		t.Fatalf("region %+v", r)
	}
	if r.Base == 0 {
		t.Fatal("region mapped at virtual page 0")
	}
	fm := k.MapFailures(r)
	if fm.FailedLines() != 0 {
		t.Fatalf("pristine pool returned %d failed lines", fm.FailedLines())
	}
	if k.mapped != 4 || k.FreePCMPages() != 12 {
		t.Fatalf("mapped=%d free=%d", k.mapped, k.FreePCMPages())
	}
}

func TestMapFailuresReflectsInjection(t *testing.T) {
	inject := failmap.New(4 * failmap.PageSize)
	inject.SetLineFailed(0)                          // page 0 line 0
	inject.SetLineFailed(2*failmap.LinesPerPage + 5) // page 2 line 5
	k := New(Config{PCMPages: 4, Inject: inject})
	r, err := k.MmapRelaxed(4)
	if err != nil {
		t.Fatal(err)
	}
	fm := k.MapFailures(r)
	if !fm.LineFailed(0) || !fm.LineFailed(2*failmap.LinesPerPage+5) || fm.FailedLines() != 2 {
		t.Fatalf("failure map wrong: %d failed", fm.FailedLines())
	}
}

func TestMmapRelaxedExhaustion(t *testing.T) {
	k := New(Config{PCMPages: 4})
	if _, err := k.MmapRelaxed(4); err != nil {
		t.Fatal(err)
	}
	if _, err := k.MmapRelaxed(1); err != ErrOutOfMemory {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestMmapPerfectPrefersPCMThenBorrows(t *testing.T) {
	// Pool layout: pages 0,2,4 imperfect; 1,3,5,6,7 perfect.
	inject := failmap.New(8 * failmap.PageSize)
	for _, p := range []int{0, 2, 4} {
		inject.SetLineFailed(p * failmap.LinesPerPage)
	}
	k := New(Config{PCMPages: 8, Inject: inject})
	if got := k.PerfectPCMPagesLeft(); got != 5 {
		t.Fatalf("PerfectPCMPagesLeft = %d, want 5", got)
	}
	r, borrowed := perfect(t, k, 5)
	if borrowed != 0 {
		t.Fatalf("borrowed %d while perfect PCM remained", borrowed)
	}
	if fm := k.MapFailures(r); fm.FailedLines() != 0 {
		t.Fatal("perfect mapping contains failures")
	}
	// Now the perfect pool is dry: further perfect requests borrow DRAM.
	_, borrowed = perfect(t, k, 3)
	if borrowed != 3 || k.Debt() != 3 || k.Borrows() != 3 {
		t.Fatalf("borrowed=%d debt=%d borrows=%d, want 3/3/3", borrowed, k.Debt(), k.Borrows())
	}
}

func TestDebitCreditRepayment(t *testing.T) {
	// Pool layout: page 0 perfect; pages 1,2,3 imperfect. Repayment occurs
	// when the relaxed allocator re-encounters a perfect frame (here one a
	// remap freed) while debt is outstanding.
	inject := failmap.New(4 * failmap.PageSize)
	for _, p := range []int{1, 2, 3} {
		inject.SetLineFailed(p * failmap.LinesPerPage)
	}
	k := New(Config{PCMPages: 4, Inject: inject})

	r0, err := k.MmapRelaxed(1) // takes perfect page 0 (no debt yet)
	if err != nil {
		t.Fatal(err)
	}
	// No perfect PCM left: the remap borrows, and page 0 returns to the pool.
	if borrowed, ok := k.RemapPageAt(r0.Base); !ok || !borrowed || k.Debt() != 1 {
		t.Fatalf("remap borrowed=%v ok=%v debt=%d, want true/true/1", borrowed, ok, k.Debt())
	}
	r, err := k.MmapRelaxed(1)
	if err != nil {
		t.Fatal(err)
	}
	// The relaxed allocator declined perfect page 0 (repaying the debt) and
	// was given imperfect page 1 instead.
	if k.Debt() != 0 || k.Repaid() != 1 {
		t.Fatalf("debt=%d repaid=%d, want 0/1", k.Debt(), k.Repaid())
	}
	if fm := k.MapFailures(r); fm.FailedLines() != 1 {
		t.Fatal("relaxed mapping should have received an imperfect page")
	}
	// The repaid page was consumed — the space penalty materialized — so a
	// further perfect request must borrow again.
	if _, borrowed := perfect(t, k, 1); borrowed != 1 {
		t.Fatal("repaid page must not return to the perfect pool")
	}
}

// Probe the edges of the page-table walk at the region count the benchmark
// ladder uses. On a pristine pool the stock placement hands out frames
// low-first, so page p of region i sits on frame i*pages+p.
func TestTranslateManyRegions(t *testing.T) {
	const regions, pages = 256, 2
	k := New(Config{PCMPages: regions * pages})
	rs := make([]*Region, regions)
	for i := range rs {
		r, err := k.MmapRelaxed(pages)
		if err != nil {
			t.Fatal(err)
		}
		rs[i] = r
	}
	for _, i := range []int{0, regions / 2, regions - 1} {
		r := rs[i]
		for _, off := range []int{0, failmap.PageSize + 5, r.Size() - 1} {
			frame, offset, ok := k.Translate(r.Base + uint64(off))
			if !ok || frame != i*pages+off/failmap.PageSize || offset != off%failmap.PageSize {
				t.Errorf("region %d +%d: got frame %d offset %d ok=%v", i, off, frame, offset, ok)
			}
		}
	}
	last := rs[regions-1]
	if _, _, ok := k.Translate(last.Base + uint64(last.Size())); ok {
		t.Error("one past the last region resolves")
	}
	if rs[0].Base > 0 {
		if _, _, ok := k.Translate(rs[0].Base - 1); ok {
			t.Error("one before the first region resolves")
		}
	}
}

// TestTableSizes: the OS failure table is a word a page (§3.2.1: ~1.6% of
// the PCM pool), and a clean one compresses to a tenth of that and below a
// 30%-failed one.
func TestTableSizes(t *testing.T) {
	inject := injected(256, 0.0, 1)
	k := New(Config{PCMPages: 256, Inject: inject})
	if raw := len(k.bitmaps) * 8; raw != 256*8 || raw != inject.RawSize() {
		t.Fatalf("raw size = %d", raw)
	}
	clean := inject.CompressedSize()
	dirty := injected(256, 0.3, 1).CompressedSize()
	if clean >= dirty {
		t.Fatalf("clean table (%d) should compress smaller than 30%%-failed table (%d)", clean, dirty)
	}
	if clean >= 256*8/10 {
		t.Fatalf("clean table compressed %d vs raw %d: too big", clean, 256*8)
	}
}

type recordingHandler struct {
	fails []uint64
}

func (h *recordingHandler) HandleFailures(vaddrs []uint64) {
	h.fails = append(h.fails, vaddrs...)
}

func TestDeviceFailureUpcall(t *testing.T) {
	clock := stats.NewClock(stats.DefaultCosts())
	dev := pcm.NewDevice(pcm.Config{
		Size: 8 * failmap.PageSize, Endurance: 3, TrackData: true,
	}, clock)
	k := New(Config{PCMPages: 8, Device: dev, Clock: clock})
	h := &recordingHandler{}
	k.RegisterFailureHandler(h)

	r, _ := k.MmapRelaxed(2)
	// Wear out line 70 of the device: it belongs to frame 1 == virtual
	// page 1 of the region.
	data := make([]byte, failmap.LineSize)
	for i := 0; i < 3; i++ {
		dev.Write(70, data)
	}
	if len(h.fails) != 1 {
		t.Fatalf("handler got %d failures, want 1", len(h.fails))
	}
	want := r.Base + 1*failmap.PageSize + uint64(70%64)*failmap.LineSize
	if h.fails[0] != want {
		t.Fatalf("vaddr = %#x, want %#x", h.fails[0], want)
	}
	// The OS table now records the failure; MapFailures sees it.
	fm := k.MapFailures(r)
	if !fm.LineFailed(70) {
		t.Fatal("failure table not updated")
	}
	if clock.Count(stats.EvUpcall) != 1 || clock.Count(stats.EvReverseXlate) != 1 {
		t.Fatalf("cost events wrong: %v", clock.Snapshot())
	}
}

// TestDeviceFailureHiddenFromUnawareProcess: with no failure handler
// registered, the kernel hides a device failure on a mapped page (§3.2):
// the page moves to a perfect frame, the page copy is charged as
// a swap-in, no up-call is made, and the page's failure map stays clean.
func TestDeviceFailureHiddenFromUnawareProcess(t *testing.T) {
	clock := stats.NewClock(stats.DefaultCosts())
	dev := pcm.NewDevice(pcm.Config{
		Size: 8 * failmap.PageSize, Endurance: 3, TrackData: true,
	}, clock)
	k := New(Config{PCMPages: 8, Device: dev, Clock: clock})
	r, _ := k.MmapRelaxed(2)
	old := r.Frame(1)
	for i := 0; i < 3; i++ {
		dev.Write(old*failmap.LinesPerPage+6, make([]byte, failmap.LineSize))
	}
	if dev.FailedLines() != 1 {
		t.Fatalf("%d device lines failed, want 1", dev.FailedLines())
	}
	now := r.Frame(1)
	if now == old || k.FrameFailedLines(now) != 0 {
		t.Fatalf("page 1 is on frame %d (failed lines %#x), want a perfect frame other than %d",
			now, k.FrameFailedLines(now), old)
	}
	if k.FrameFailedLines(old) == 0 {
		t.Fatal("failure table not updated for the retired frame")
	}
	if fm := k.MapFailures(r); fm.FailedLines() != 0 {
		t.Fatalf("the unaware process sees %d failed lines", fm.FailedLines())
	}
	if clock.Count(stats.EvSwapIn) != 1 || clock.Count(stats.EvUpcall) != 0 {
		t.Fatalf("cost events wrong: %v", clock.Snapshot())
	}
}

func TestDeviceFailureOnUnmappedFrameIsTableOnly(t *testing.T) {
	dev := pcm.NewDevice(pcm.Config{Size: 8 * failmap.PageSize, Endurance: 1}, nil)
	k := New(Config{PCMPages: 8, Device: dev})
	h := &recordingHandler{}
	k.RegisterFailureHandler(h)
	dev.Write(7*failmap.LinesPerPage+3, make([]byte, failmap.LineSize))
	if len(h.fails) != 0 {
		t.Fatal("unmapped failure should not up-call")
	}
	// Frame 7 left the perfect pool.
	r, borrowed := perfect(t, k, 7)
	_ = r
	if borrowed != 0 {
		t.Fatal("7 perfect frames should remain")
	}
	_, borrowed = perfect(t, k, 1)
	if borrowed != 1 {
		t.Fatal("frame 7 should no longer be perfect")
	}
}

func TestInjectDynamicFailure(t *testing.T) {
	k := New(Config{PCMPages: 4})
	h := &recordingHandler{}
	k.RegisterFailureHandler(h)
	r, _ := k.MmapRelaxed(2)
	k.InjectDynamicFailure(r, 1, 9)
	if len(h.fails) != 1 {
		t.Fatal("no up-call")
	}
	want := r.Base + failmap.PageSize + 9*failmap.LineSize
	if h.fails[0] != want {
		t.Fatalf("vaddr = %#x, want %#x", h.fails[0], want)
	}
	if !k.MapFailures(r).LineFailed(failmap.LinesPerPage + 9) {
		t.Fatal("table not updated")
	}
}

// Property: debt never goes negative and borrows == repaid + debt.
func TestDebitCreditInvariant(t *testing.T) {
	f := func(seed int64, ops []bool) bool {
		k := New(Config{PCMPages: 64, Inject: injected(64, 0.4, seed)})
		for _, perfect := range ops {
			if perfect {
				k.MmapPerfect(1)
			} else if _, err := k.MmapRelaxed(1); err != nil {
				break
			}
			if k.Debt() < 0 || k.Borrows() != k.Repaid()+k.Debt() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: MapFailures of a perfect mapping is always clean, and relaxed
// mappings reproduce exactly the injected bitmaps of their frames.
func TestMapFailuresFidelity(t *testing.T) {
	f := func(seed int64) bool {
		inject := injected(32, 0.3, seed)
		k := New(Config{PCMPages: 32, Inject: inject})
		r, err := k.MmapRelaxed(8)
		if err != nil {
			return false
		}
		fm := k.MapFailures(r)
		for i := 0; i < 8; i++ {
			if fm.PageBitmap(i) != inject.PageBitmap(r.Frame(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// WriteLine must recover from a stalled failure buffer by draining
// (delivering up-calls) and retrying, instead of failing the write.
func TestWriteLineDrainRetryUnstalls(t *testing.T) {
	clock := stats.NewClock(stats.DefaultCosts())
	dev := pcm.NewDevice(pcm.Config{
		Size: 8 * failmap.PageSize, BufferCap: 6, BufferReserve: 2, TrackData: true,
	}, clock)
	retries := 0
	k := New(Config{PCMPages: 8, Device: dev, Clock: clock,
		Probe: func(p probe.Point, addr uint64) {
			if p == probe.PCMStallRetry {
				retries++
			}
		}})
	r, _ := k.MmapRelaxed(2)

	// Storm: fill the buffer to its watermark with interrupt delivery
	// detached, leaving the device stalled.
	dev.OnFailure(nil)
	dev.OnBufferFull(nil)
	for l := dev.Lines() - 1; !dev.Stalled(); l-- {
		dev.ForceFail(l, nil)
	}
	if err := dev.Write(3, make([]byte, failmap.LineSize)); err != pcm.ErrStalled {
		t.Fatalf("direct device write = %v, want ErrStalled", err)
	}

	// The kernel path drains and retries; the write-through must succeed.
	data := make([]byte, failmap.LineSize)
	data[0] = 0x5A
	if err := k.WriteLine(r.Base, data); err != nil {
		t.Fatalf("WriteLine did not recover from stall: %v", err)
	}
	if retries == 0 {
		t.Fatal("drain-and-retry path not exercised")
	}
	if dev.Stalled() {
		t.Fatal("device still stalled after drain")
	}
	got := make([]byte, failmap.LineSize)
	dev.Read(0, got)
	if got[0] != 0x5A {
		t.Fatal("write-through data lost")
	}
	pushed, invalidated, drained := dev.BufferAccounting()
	if int(pushed-invalidated-drained) != dev.BufferLen() {
		t.Fatalf("buffer accounting off: %d %d %d vs %d", pushed, invalidated, drained, dev.BufferLen())
	}
	if !errors.Is(ErrWriteStalled, pcm.ErrStalled) {
		t.Fatal("ErrWriteStalled must wrap pcm.ErrStalled")
	}
}

func TestWriteLineUnmappedAndDRAM(t *testing.T) {
	dev := pcm.NewDevice(pcm.Config{Size: 4 * failmap.PageSize, TrackData: true}, nil)
	k := New(Config{PCMPages: 4, Device: dev})
	if err := k.WriteLine(0xDEAD000, make([]byte, failmap.LineSize)); err == nil {
		t.Fatal("write to unmapped address must error")
	}
	// Exhaust the 4-frame PCM pool so the next perfect mapping borrows DRAM.
	k.MmapPerfect(4)
	r, borrowed := perfect(t, k, 1)
	if borrowed != 1 {
		t.Fatalf("expected a DRAM borrow, got %d", borrowed)
	}
	if err := k.WriteLine(r.Base, make([]byte, failmap.LineSize)); err != nil {
		t.Fatalf("DRAM write-through should absorb silently: %v", err)
	}
}

// perfect is MmapPerfect for a test whose mappings stay within
// VirtualLimit.
func perfect(t testing.TB, k *Kernel, n int) (*Region, int) {
	t.Helper()
	r, borrowed, err := k.MmapPerfect(n)
	if err != nil {
		t.Fatal(err)
	}
	return r, borrowed
}

// TestMappingPastTheVirtualLimitIsRefused: the kernel hands out virtual
// space up to VirtualLimit and no further. A relaxed or a perfect mapping
// that would cross it is refused with ErrOutOfMemory before it takes a
// frame, repays or records a debt or moves the cursor — even with free
// frames left and DRAM to borrow — and one that ends exactly at the limit
// is mapped and translates.
func TestMappingPastTheVirtualLimitIsRefused(t *testing.T) {
	const pages = 16
	inject := failmap.New(pages * failmap.PageSize)
	for p := 1; p < pages; p++ { // frame 0 is the one perfect frame
		inject.SetLineFailed(p * failmap.LinesPerPage)
	}
	k := New(Config{PCMPages: pages, Inject: inject})
	limit := k.VirtualLimit()
	if want := uint64(3*pages+4096) * failmap.PageSize; limit != want {
		t.Fatalf("VirtualLimit() = %#x, want %#x", limit, want)
	}
	// A runtime never reuses virtual space, so a long run walks the cursor
	// up to the limit: start three pages below it.
	k.vnext = limit - 3*failmap.PageSize
	if _, borrowed := perfect(t, k, 2); borrowed != 1 {
		t.Fatalf("borrowed %d pages, want 1 beside the one perfect frame", borrowed)
	}

	type state struct{ free, debt, borrows, mapped, perfect int }
	snapshot := func() state {
		return state{k.FreePCMPages(), k.Debt(), k.Borrows(), k.mapped, k.PerfectPCMPagesLeft()}
	}
	before, base := snapshot(), k.vnext
	if before.free == 0 || before.debt != 1 {
		t.Fatalf("setup left %+v, want free imperfect frames and one page of debt", before)
	}
	if r, err := k.MmapRelaxed(2); !errors.Is(err, ErrOutOfMemory) || r != nil {
		t.Fatalf("MmapRelaxed(2) with one page of virtual space left = (%v, %v), want ErrOutOfMemory", r, err)
	}
	if r, borrowed, err := k.MmapPerfect(2); !errors.Is(err, ErrOutOfMemory) || r != nil || borrowed != 0 {
		t.Fatalf("MmapPerfect(2) with one page of virtual space left = (%v, %d, %v), want ErrOutOfMemory", r, borrowed, err)
	}
	if now := snapshot(); now != before || k.vnext != base {
		t.Fatalf("refused mappings moved the kernel: %+v at %#x, was %+v at %#x", now, k.vnext, before, base)
	}

	r, err := k.MmapRelaxed(1)
	if err != nil {
		t.Fatalf("a mapping ending at the limit: %v", err)
	}
	if r.Base != base || r.Base+uint64(r.Size()) != limit {
		t.Fatalf("last region [%#x, %#x), want [%#x, %#x)", r.Base, r.Base+uint64(r.Size()), base, limit)
	}
	if f, _, ok := k.Translate(limit - 1); !ok || f != r.Frame(0) {
		t.Fatalf("the last byte below the limit translates to (%d, %v)", f, ok)
	}
	if _, err := k.MmapRelaxed(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("MmapRelaxed(1) at the limit: %v", err)
	}
	if _, _, err := k.MmapPerfect(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("MmapPerfect(1) at the limit: %v", err)
	}
}
