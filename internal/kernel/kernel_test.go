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
	if k.MappedPages() != 4 || k.FreePCMPages() != 12 {
		t.Fatalf("mapped=%d free=%d", k.MappedPages(), k.FreePCMPages())
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
	r, borrowed := k.MmapPerfect(5)
	if borrowed != 0 {
		t.Fatalf("borrowed %d while perfect PCM remained", borrowed)
	}
	if fm := k.MapFailures(r); fm.FailedLines() != 0 {
		t.Fatal("perfect mapping contains failures")
	}
	// Now the perfect pool is dry: further perfect requests borrow DRAM.
	_, borrowed = k.MmapPerfect(3)
	if borrowed != 3 || k.Debt() != 3 || k.Borrows() != 3 {
		t.Fatalf("borrowed=%d debt=%d borrows=%d, want 3/3/3", borrowed, k.Debt(), k.Borrows())
	}
}

func TestDebitCreditRepayment(t *testing.T) {
	// Pool layout: page 0 perfect; pages 1,2,3 imperfect. Repayment occurs
	// when the relaxed allocator re-encounters a perfect frame (here via
	// Release, as when a GC returns free blocks) while debt is outstanding.
	inject := failmap.New(4 * failmap.PageSize)
	for _, p := range []int{1, 2, 3} {
		inject.SetLineFailed(p * failmap.LinesPerPage)
	}
	k := New(Config{PCMPages: 4, Inject: inject})

	r0, err := k.MmapRelaxed(1) // takes perfect page 0 (no debt yet)
	if err != nil {
		t.Fatal(err)
	}
	_, borrowed := k.MmapPerfect(1) // no perfect PCM left: borrows
	if borrowed != 1 || k.Debt() != 1 {
		t.Fatalf("borrowed=%d debt=%d, want 1/1", borrowed, k.Debt())
	}
	k.Release(r0) // page 0 returns to the pool
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
	_, borrowed = k.MmapPerfect(1)
	if borrowed != 1 {
		t.Fatal("repaid page must not return to the perfect pool")
	}
}

func TestReleaseRecyclesFrames(t *testing.T) {
	k := New(Config{PCMPages: 4})
	r, _ := k.MmapRelaxed(4)
	k.Release(r)
	if k.FreePCMPages() != 4 {
		t.Fatalf("free=%d after release, want 4", k.FreePCMPages())
	}
	r2, err := k.MmapRelaxed(4)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Pages != 4 {
		t.Fatal("could not remap released frames")
	}
}

// A released region's addresses must stop resolving: its frames are back in
// the pool and may already back another mapping.
func TestReleaseUnmapsAddresses(t *testing.T) {
	dev := pcm.NewDevice(pcm.Config{Size: 8 * failmap.PageSize, TrackData: true}, nil)
	k := New(Config{PCMPages: 8, Device: dev})
	keep, _ := k.MmapRelaxed(2)
	gone, _ := k.MmapRelaxed(2)
	after, _ := k.MmapRelaxed(2)
	k.Release(gone)

	line := make([]byte, failmap.LineSize)
	for _, vaddr := range []uint64{gone.Base, gone.Base + uint64(gone.Size()) - 1} {
		if _, _, ok := k.Translate(vaddr); ok {
			t.Errorf("Translate(%#x) resolves after Release", vaddr)
		}
		if k.RegionAt(vaddr) != nil {
			t.Errorf("RegionAt(%#x) finds the released region", vaddr)
		}
		if err := k.WriteLine(vaddr&^uint64(failmap.LineSize-1), line); err == nil {
			t.Errorf("WriteLine(%#x) succeeded on a released address", vaddr)
		}
	}
	// The neighbours on either side are untouched.
	for _, r := range []*Region{keep, after} {
		if _, _, ok := k.Translate(r.Base); !ok {
			t.Errorf("Translate(%#x) lost a live region", r.Base)
		}
		if err := k.WriteLine(r.Base, line); err != nil {
			t.Errorf("WriteLine(%#x): %v", r.Base, err)
		}
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
	// Releasing from the middle unmaps that region alone.
	k.Release(rs[regions/2])
	if _, _, ok := k.Translate(rs[regions/2].Base); ok {
		t.Error("released middle region resolves")
	}
	for _, i := range []int{regions/2 - 1, regions/2 + 1} {
		if frame, _, ok := k.Translate(rs[i].Base); !ok || frame != i*pages {
			t.Errorf("region %d lost after releasing its neighbour", i)
		}
	}
}

func TestTableSizes(t *testing.T) {
	k := New(Config{PCMPages: 256, Inject: injected(256, 0.0, 1)})
	if k.TableRawSize() != 256*8 {
		t.Fatalf("raw size = %d", k.TableRawSize())
	}
	clean := k.TableCompressedSize()
	k2 := New(Config{PCMPages: 256, Inject: injected(256, 0.3, 1)})
	dirty := k2.TableCompressedSize()
	if clean >= dirty {
		t.Fatalf("clean table (%d) should compress smaller than 30%%-failed table (%d)", clean, dirty)
	}
	if clean >= k.TableRawSize()/10 {
		t.Fatalf("clean table compressed %d vs raw %d: too big", clean, k.TableRawSize())
	}
}

type recordingHandler struct {
	fails []LineFailure
}

func (h *recordingHandler) HandleFailures(fs []LineFailure) {
	h.fails = append(h.fails, fs...)
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
	data[0] = 0xEE
	for i := 0; i < 3; i++ {
		dev.Write(70, data)
	}
	if len(h.fails) != 1 {
		t.Fatalf("handler got %d failures, want 1", len(h.fails))
	}
	want := r.Base + 1*failmap.PageSize + uint64(70%64)*failmap.LineSize
	if h.fails[0].VAddr != want {
		t.Fatalf("VAddr = %#x, want %#x", h.fails[0].VAddr, want)
	}
	if h.fails[0].Data[0] != 0xEE {
		t.Fatal("parked data not delivered")
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
	r, borrowed := k.MmapPerfect(7)
	_ = r
	if borrowed != 0 {
		t.Fatal("7 perfect frames should remain")
	}
	_, borrowed = k.MmapPerfect(1)
	if borrowed != 1 {
		t.Fatal("frame 7 should no longer be perfect")
	}
}

func TestInjectDynamicFailure(t *testing.T) {
	k := New(Config{PCMPages: 4})
	h := &recordingHandler{}
	k.RegisterFailureHandler(h)
	r, _ := k.MmapRelaxed(2)
	data := make([]byte, failmap.LineSize)
	k.InjectDynamicFailure(r, 1, 9, data)
	if len(h.fails) != 1 {
		t.Fatal("no up-call")
	}
	want := r.Base + failmap.PageSize + 9*failmap.LineSize
	if h.fails[0].VAddr != want {
		t.Fatalf("VAddr = %#x, want %#x", h.fails[0].VAddr, want)
	}
	if !k.MapFailures(r).LineFailed(failmap.LinesPerPage + 9) {
		t.Fatal("table not updated")
	}
}

func TestSwapInPlacementClustered(t *testing.T) {
	// Clustered pool: page bitmaps with failures at an edge.
	inject := failmap.New(4 * failmap.PageSize)
	// Page 0: 8 failures at bottom; page 1: perfect; page 2: 2 at bottom;
	// page 3: 20 at bottom.
	for i := 0; i < 8; i++ {
		inject.SetLineFailed(i)
	}
	inject.SetLineFailed(2 * failmap.LinesPerPage)
	inject.SetLineFailed(2*failmap.LinesPerPage + 1)
	for i := 0; i < 20; i++ {
		inject.SetLineFailed(3*failmap.LinesPerPage + i)
	}
	k := New(Config{PCMPages: 4, Inject: inject})
	// Source page has 8 failures: any free frame with <= 8 clustered
	// failures qualifies (page 0, 1 or 2; scan order picks 0).
	srcBitmap := uint64(1<<8) - 1
	frame, fallback, err := k.SwapInPlacement(srcBitmap, true)
	if err != nil || fallback {
		t.Fatalf("frame=%d fallback=%v err=%v", frame, fallback, err)
	}
	if frame != 0 {
		t.Fatalf("frame=%d, want 0 (first fit with <= failures)", frame)
	}
	// Source with 1 failure: pages 0,3 have too many, 2 has 2 (>1), so the
	// perfect page 1 is chosen via the <= rule.
	frame, fallback, err = k.SwapInPlacement(1, true)
	if err != nil || fallback || frame != 1 {
		t.Fatalf("frame=%d fallback=%v err=%v, want perfect page 1", frame, fallback, err)
	}
}

func TestSwapInPlacementUnclusteredFallsBack(t *testing.T) {
	inject := failmap.New(2 * failmap.PageSize)
	inject.SetLineFailed(10) // page 0 has a failure at line 10
	k := New(Config{PCMPages: 2, Inject: inject})
	// Source bitmap with failure at line 20: page 0's failures (line 10)
	// are not a subset, so the kernel falls back to the perfect page 1.
	frame, fallback, err := k.SwapInPlacement(1<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	if !fallback || frame != 1 {
		t.Fatalf("frame=%d fallback=%v, want perfect fallback to page 1", frame, fallback)
	}
	// Source bitmap that covers line 10: page 0 is a subset match.
	k2 := New(Config{PCMPages: 2, Inject: inject})
	frame, fallback, err = k2.SwapInPlacement(1<<10|1<<20, false)
	if err != nil || fallback || frame != 0 {
		t.Fatalf("frame=%d fallback=%v err=%v, want subset match on page 0", frame, fallback, err)
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
	r, borrowed := k.MmapPerfect(1)
	if borrowed != 1 {
		t.Fatalf("expected a DRAM borrow, got %d", borrowed)
	}
	if err := k.WriteLine(r.Base, make([]byte, failmap.LineSize)); err != nil {
		t.Fatalf("DRAM write-through should absorb silently: %v", err)
	}
}
