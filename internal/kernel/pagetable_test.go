package kernel

import (
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wearmem/internal/failmap"
	"wearmem/internal/pcm"
)

// tableKernel builds a device-backed kernel whose frames with p%4 == 1 carry
// one failed line, so relaxed mappings are mixed and perfect ones must skip.
func tableKernel(pages int) *Kernel {
	inject := failmap.New(pages * failmap.PageSize)
	for p := 1; p < pages; p += 4 {
		inject.SetLineFailed(p*failmap.LinesPerPage + 3)
	}
	dev := pcm.NewDevice(pcm.Config{
		Size: pages * failmap.PageSize, Endurance: 1 << 30, TrackData: true, Seed: 7,
	}, nil)
	return New(Config{PCMPages: pages, Inject: inject, Device: dev})
}

// freePerfectFrame picks a free perfect PCM frame the way the remap policies
// do (the device is unworn, so it is the lowest one).
func freePerfectFrame(t *testing.T, k *Kernel) int {
	t.Helper()
	k.mu.Lock()
	defer k.mu.Unlock()
	_, f := k.rankFramesLocked(make([]uint64, k.pcmPages))
	if f < 0 {
		t.Fatal("no free perfect frame left")
	}
	return f
}

// TestPageTableDifferential runs every operation that creates or changes a
// translation against a shadow kept by the test: frames snapshotted when a
// region is mapped, then updated only from what each call reports. After
// every step the page table, Region.Frame and the reverse map must agree
// with the shadow, and everything the script never mapped, skipped over or
// released must not translate.
func TestPageTableDifferential(t *testing.T) {
	k := tableKernel(1024)
	type mapping struct {
		r      *Region
		frames []int
	}
	var live []*mapping
	unmapped := []uint64{0, failmap.PageSize - 1, k.VirtualLimit(), 1 << 40} // page 0 and past the table

	check := func(step string) {
		t.Helper()
		owner := map[int]*Region{}
		for _, m := range live {
			for i, want := range m.frames {
				if prev := owner[want]; prev != nil {
					t.Fatalf("%s: frame %d backs two pages (regions %#x and %#x)", step, want, prev.Base, m.r.Base)
				}
				owner[want] = m.r
				if got := m.r.Frame(i); got != want {
					t.Fatalf("%s: region %#x page %d on frame %d, shadow says %d", step, m.r.Base, i, got, want)
				}
				for _, off := range []int{0, 77, failmap.PageSize - 1} {
					frame, offset, ok := k.Translate(m.r.Base + uint64(i*failmap.PageSize+off))
					if !ok || frame != want || offset != off {
						t.Fatalf("%s: region %#x page %d +%d translates to (%d, %d, %v), want (%d, %d, true)",
							step, m.r.Base, i, off, frame, offset, ok, want, off)
					}
				}
				if rv := k.reverse[want]; rv.region != m.r || rv.page != i {
					t.Fatalf("%s: reverse map of frame %d is (%p, %d), want (%p, %d)", step, want, rv.region, rv.page, m.r, i)
				}
				if k.RegionAt(m.r.Base+uint64(i*failmap.PageSize)) != m.r {
					t.Fatalf("%s: RegionAt misses region %#x page %d", step, m.r.Base, i)
				}
			}
		}
		reversed := 0
		for _, rv := range k.reverse {
			if rv.region != nil {
				reversed++
			}
		}
		if reversed != len(owner) {
			t.Fatalf("%s: reverse map holds %d frames, %d pages are live", step, reversed, len(owner))
		}
		line := make([]byte, failmap.LineSize)
		for _, vaddr := range append(unmapped, k.vnext, k.vnext+failmap.PageSize) {
			if frame, _, ok := k.Translate(vaddr); ok {
				t.Fatalf("%s: unmapped %#x translates to frame %d", step, vaddr, frame)
			}
			if k.RegionAt(vaddr) != nil {
				t.Fatalf("%s: RegionAt(%#x) finds a region", step, vaddr)
			}
			err := k.WriteLine(vaddr&^uint64(failmap.LineSize-1), line)
			if err == nil || !strings.Contains(err.Error(), "unmapped address") {
				t.Fatalf("%s: WriteLine(%#x) = %v, want the unmapped-address error", step, vaddr, err)
			}
		}
	}
	mapped := func(step string, r *Region) *mapping {
		m := &mapping{r: r, frames: make([]int, r.Pages)}
		for i := range m.frames {
			m.frames[i] = r.Frame(i)
		}
		live = append(live, m)
		check(step)
		return m
	}
	relaxed := func(step string, n int) *mapping {
		t.Helper()
		r, err := k.MmapRelaxed(n)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		return mapped(step, r)
	}
	align := func(to uint64) {
		from := k.vnext
		k.AlignVirtual(to)
		if from == k.vnext {
			t.Fatalf("AlignVirtual(%#x) left no gap at %#x", to, from)
		}
		for v := from; v < k.vnext; v += failmap.PageSize {
			unmapped = append(unmapped, v, v+failmap.PageSize-1)
		}
	}
	release := func(step string, m *mapping) {
		for i := 0; i < m.r.Pages; i++ {
			unmapped = append(unmapped, m.r.Base+uint64(i*failmap.PageSize))
		}
		k.Release(m.r)
		live = slices.DeleteFunc(live, func(l *mapping) bool { return l == m })
		check(step)
	}

	a := relaxed("relaxed a", 3) // frames 0..2: page 1 is imperfect
	align(32 << 10)
	b := relaxed("relaxed b", 8)
	pr, borrowed := perfect(t, k, 2)
	if borrowed != 0 {
		t.Fatalf("perfect c borrowed %d pages with perfect PCM left", borrowed)
	}
	c := mapped("perfect c", pr)
	align(64 << 10)
	big := relaxed("relaxed big", 300)

	if k.FrameFailedLines(a.frames[1]) == 0 {
		t.Fatalf("frame %d should be imperfect", a.frames[1])
	}
	if _, ok := k.RemapPageAt(a.r.Base + failmap.PageSize); !ok {
		t.Fatal("RemapPageAt refused a mapped address")
	}
	a.frames[1] = a.r.Frame(1)
	check("RemapPageAt on an imperfect frame")

	old := b.frames[2]
	if _, ok := k.RemapPageAt(b.r.Base + 2*failmap.PageSize + 100); !ok {
		t.Fatal("RemapPageAt refused a mapped address")
	}
	// RemapPageAt does not report the frame it chose: accept any perfect
	// frame other than the old one (check holds it to backing this page only).
	b.frames[2] = b.r.Frame(2)
	if b.frames[2] == old || k.FrameFailedLines(b.frames[2]) != 0 {
		t.Fatalf("RemapPageAt moved frame %d to %d", old, b.frames[2])
	}
	check("RemapPageAt")

	dst := freePerfectFrame(t, k)
	if !k.PolicyRemapFrame(c.frames[0], dst) {
		t.Fatalf("PolicyRemapFrame(%d, %d) refused", c.frames[0], dst)
	}
	c.frames[0] = dst
	check("PolicyRemapFrame")

	if !k.PolicyPromoteFrame(c.frames[1]) {
		t.Fatalf("PolicyPromoteFrame(%d) refused", c.frames[1])
	}
	if c.frames[1] = c.r.Frame(1); !k.FrameIsDRAM(c.frames[1]) {
		t.Fatalf("promoted page sits on PCM frame %d", c.frames[1])
	}
	check("PolicyPromoteFrame")

	pr, borrowed = perfect(t, k, k.PerfectPCMPagesLeft()+2)
	if borrowed != 2 {
		t.Fatalf("perfect d borrowed %d pages, want 2", borrowed)
	}
	d := mapped("perfect d with DRAM", pr)

	release("release b", b)
	release("release d", d)
	relaxed("relaxed e on recycled frames", 4)
	release("release big", big)
	relaxed("relaxed f", 40)

	line := make([]byte, failmap.LineSize)
	for _, m := range live {
		for i := 0; i < m.r.Pages; i++ {
			if err := k.WriteLine(m.r.Base+uint64(i*failmap.PageSize), line); err != nil {
				t.Fatalf("WriteLine to live region %#x page %d: %v", m.r.Base, i, err)
			}
		}
	}
}

// TestLockFreeTranslate reads the page table from several goroutines, through
// Translate and WriteLine, while one goroutine maps regions, remaps and
// promotes the pages being read. Every frame a reader saw
// must be one its page held at some point, and -race must stay quiet.
func TestLockFreeTranslate(t *testing.T) {
	const pages, readers, mappings, wantPasses = 16, 4, 120, 400
	k := tableKernel(1024)
	k.Device().SetConcurrent() // the readers below store through WriteLine
	r, _ := perfect(t, k, pages)
	held := make([]map[int]bool, pages) // written by the remapper alone, read after Wait
	for p := range held {
		held[p] = map[int]bool{r.Frame(p): true}
	}

	var done atomic.Bool
	var passes atomic.Int64 // full sweeps of the range, all readers together
	var wg sync.WaitGroup
	stop := func() { done.Store(true); wg.Wait() }
	defer stop() // also when the remapper below gives up early
	seen := make([][]map[int]bool, readers)
	for g := range seen {
		seen[g] = make([]map[int]bool, pages)
		for p := range seen[g] {
			seen[g][p] = map[int]bool{}
		}
		wg.Add(1)
		go func(seen []map[int]bool) {
			defer wg.Done()
			line := make([]byte, failmap.LineSize)
			for last := false; !last; {
				last = done.Load() // one more full pass after the remapper stops
				for p := 0; p < pages; p++ {
					vaddr := r.Base + uint64(p*failmap.PageSize+5*failmap.LineSize)
					frame, off, ok := k.Translate(vaddr + 9)
					if !ok || off != 5*failmap.LineSize+9 {
						t.Errorf("page %d: Translate = (%d, %d, %v)", p, frame, off, ok)
						return
					}
					seen[p][frame] = true
					if err := k.WriteLine(vaddr, line); err != nil {
						t.Errorf("page %d: WriteLine: %v", p, err)
						return
					}
				}
				passes.Add(1)
				runtime.Gosched() // interleave with the remapper on one P too
			}
		}(seen[g])
	}

	// Keep remapping until the readers have swept the range often enough to
	// have overlapped it; the cap ends the test if a reader gave up.
	for i := 0; i < mappings || (passes.Load() < wantPasses && i < 100*mappings); i++ {
		p := i % pages
		switch src := r.Frame(p); {
		case i%8 == 7:
			if !k.FrameIsDRAM(src) && !k.PolicyPromoteFrame(src) {
				t.Errorf("PolicyPromoteFrame(%d) refused", src)
			}
		case i%3 == 0:
			k.RemapPageAt(r.Base + uint64(p)*failmap.PageSize)
		case !k.FrameIsDRAM(src):
			if dst := freePerfectFrame(t, k); !k.PolicyRemapFrame(src, dst) {
				t.Errorf("PolicyRemapFrame(%d, %d) refused", src, dst)
			}
		}
		held[p][r.Frame(p)] = true
		runtime.Gosched()
		if i >= mappings {
			continue
		}
		// A mapping of growing size, kept: entries beyond the read range
		// are written under the readers.
		if _, err := k.MmapRelaxed(1 + i/16); err != nil {
			t.Fatal(err)
		}
	}
	stop()
	overlapped := false
	for g := range seen {
		for p, frames := range seen[g] {
			overlapped = overlapped || len(frames) > 1
			for f := range frames {
				if !held[p][f] {
					t.Errorf("reader %d saw page %d on frame %d, which never backed it", g, p, f)
				}
			}
		}
	}
	if !overlapped {
		t.Error("no reader saw a page move: the readers never overlapped the remapper")
	}
}

// translateBenchKernel maps what the ledger's kernel.translate rung maps:
// 256 regions of 8 pages, the page table of an 8 MB heap of 32 KB blocks.
func translateBenchKernel(b *testing.B) (k *Kernel, base, span uint64) {
	const regions, pages = 256, 8
	k = New(Config{PCMPages: 2 * regions * pages})
	for i := 0; i < regions; i++ {
		r, err := k.MmapRelaxed(pages)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			base = r.Base
		}
	}
	return k, base, regions * pages * failmap.PageSize
}

var benchSink atomic.Int64

// BenchmarkTranslate is the ledger's kernel.translate rung, readable without
// building the ledger: go test ./internal/kernel/ -run '^$' -bench . -cpu 1,2
func BenchmarkTranslate(b *testing.B) {
	k, base, span := translateBenchKernel(b)
	sum := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _, _ := k.Translate(base + uint64(i)*4099%span)
		sum += f
	}
	benchSink.Add(int64(sum))
}

// BenchmarkTranslateParallel walks the table from every P while one goroutine
// keeps mapping and releasing a block.
func BenchmarkTranslateParallel(b *testing.B) {
	k, base, span := translateBenchKernel(b)
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Microsecond): // the writer is the rare side
			}
			if r, err := k.MmapRelaxed(8); err == nil {
				k.Release(r)
			}
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sum := 0
		for i := 0; pb.Next(); i++ {
			f, _, _ := k.Translate(base + uint64(i)*4099%span)
			sum += f
		}
		benchSink.Add(int64(sum))
	})
	close(stop)
	<-stopped
}

// BenchmarkWriteLine is the ledger's kernel.write_line rung: one line store
// through translation to a device that never wears out.
func BenchmarkWriteLine(b *testing.B) {
	const pages = 256
	dev := pcm.NewDevice(pcm.Config{Size: pages * failmap.PageSize, Endurance: 1 << 40, TrackData: true}, nil)
	k := New(Config{PCMPages: pages, Device: dev})
	r, err := k.MmapRelaxed(pages)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, failmap.LineSize)
	lines := r.Size() / failmap.LineSize
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.WriteLine(r.Base+uint64(i%lines)*failmap.LineSize, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// The page table stores a frame plus one in 32 bits: the last DRAM frame
// whose entry fits is minted, and the one after it is refused.
func TestBorrowStopsBeforeFramesOverflow(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("a frame number near 2³² does not fit this platform's int")
	}
	k := New(Config{PCMPages: 1})
	last := uint64(math.MaxUint32 - 1)
	k.dramNext = int(last)
	k.mu.Lock()
	defer k.mu.Unlock()
	if f := k.borrowDRAMLocked(); uint64(f) != last {
		t.Fatalf("borrowed frame %d, want %d", f, last)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a frame whose entry overflows 32 bits was minted")
		}
	}()
	k.borrowDRAMLocked()
}
