package kernel

import (
	"math/rand"
	"slices"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/pcm"
	"wearmem/internal/stats"
)

func TestRediscoverFailuresAfterAbnormalShutdown(t *testing.T) {
	dev := pcm.NewDevice(pcm.Config{Size: 8 * failmap.PageSize, Endurance: 1}, nil)
	// Fail three lines directly on the device, draining so the buffer is
	// clear (the failures were never recorded by an OS — abnormal shutdown).
	buf := make([]byte, failmap.LineSize)
	for _, l := range []int{5, 100, 300} {
		dev.Write(l, buf)
		dev.Drain()
	}
	// A fresh kernel boots with an empty table and rediscovers them.
	k := New(Config{PCMPages: 8, Device: dev})
	found := k.RediscoverFailures()
	if found != 3 {
		t.Fatalf("rediscovered %d failures, want 3", found)
	}
	r, _ := k.MmapRelaxed(8)
	fm := k.MapFailures(r)
	for _, l := range []int{5, 100, 300} {
		if !fm.LineFailed(l) {
			t.Fatalf("line %d not rediscovered", l)
		}
	}
}

// rediscoverPerLine is the scan RediscoverFailures replaced, kept as its
// reference: one Device.Unavailable a line, one page-scan charge a frame.
func rediscoverPerLine(k *Kernel) int {
	found := 0
	for l := 0; l < k.device.Lines() && l < k.pcmPages*failmap.LinesPerPage; l++ {
		if l%failmap.LinesPerPage == 0 {
			k.charge(stats.EvSwapIn)
		}
		if k.device.Unavailable(l) {
			frame := l / failmap.LinesPerPage
			bit := uint64(1) << uint(l%failmap.LinesPerPage)
			if k.bitmaps[frame]&bit == 0 {
				k.bitmaps[frame] |= bit
				found++
			}
		}
	}
	return found
}

// TestRediscoverFailuresMatchesPerLineScan: the one-pass scan finds what the
// per-line scan found, leaves the same table and charges the same cycles, on
// a plain worn device, under start-gap, under clustering (whose metadata
// lines are unavailable without having failed) and with a pool smaller than
// the module; some of the failures are already in the table (the injected
// map), so found counts the new ones only.
func TestRediscoverFailuresMatchesPerLineScan(t *testing.T) {
	const pages = 32
	for _, tc := range []struct {
		name string
		cfg  pcm.Config
		pool int
		// metadata: more lines must be unavailable than have failed.
		metadata bool
	}{
		{"plain", pcm.Config{}, pages, false},
		{"start-gap", pcm.Config{WearLeveling: pcm.StartGap, GapInterval: 3}, pages, false},
		{"clustered", pcm.Config{ClusterPages: 2}, pages, true},
		{"small pool", pcm.Config{}, pages - 12, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Size = pages * failmap.PageSize
			tc.cfg.Endurance = 6
			tc.cfg.Variation = 0.4
			tc.cfg.Seed = 11
			dev := pcm.NewDevice(tc.cfg, nil)
			rng := rand.New(rand.NewSource(5))
			buf := make([]byte, failmap.LineSize)
			for i := 0; i < 6*dev.Lines(); i++ {
				if l := rng.Intn(dev.Lines()); !dev.Unavailable(l) {
					dev.Write(l, buf)
				}
				for dev.BufferLen() > 0 {
					dev.Drain()
				}
			}
			fm := dev.FailMap()
			if fm.FailedLines() < dev.Lines()/20 {
				t.Fatalf("only %d of %d lines unavailable: not a worn device", fm.FailedLines(), dev.Lines())
			}
			if tc.metadata && fm.FailedLines() <= dev.FailedLines() {
				t.Fatalf("%d lines unavailable, %d failed: no clustering metadata among them", fm.FailedLines(), dev.FailedLines())
			}
			// The table already knows every third unavailable line.
			known := failmap.New(tc.pool * failmap.PageSize)
			for l, n := 0, 0; l < known.Lines(); l++ {
				if fm.LineFailed(l) {
					if n%3 == 0 {
						known.SetLineFailed(l)
					}
					n++
				}
			}
			boot := func() (*Kernel, *stats.Clock) {
				clock := stats.NewClock(stats.DefaultCosts())
				return New(Config{PCMPages: tc.pool, Inject: known, Device: dev, Clock: clock}), clock
			}
			got, gotClock := boot()
			want, wantClock := boot()
			gotFound, wantFound := got.RediscoverFailures(), rediscoverPerLine(want)
			if gotFound != wantFound || gotFound == 0 {
				t.Errorf("found %d, the per-line scan %d (want equal and above 0)", gotFound, wantFound)
			}
			if !slices.Equal(got.bitmaps, want.bitmaps) {
				t.Error("failure tables differ")
			}
			for f, bm := range got.bitmaps {
				if bm != fm.PageBitmap(f) {
					t.Fatalf("frame %d: table %#x, device %#x", f, bm, fm.PageBitmap(f))
				}
			}
			if g, w := gotClock.Count(stats.EvSwapIn), wantClock.Count(stats.EvSwapIn); g != w || g == 0 {
				t.Errorf("page-scan charges %d, the per-line scan %d", g, w)
			}
			if gotClock.Now() != wantClock.Now() {
				t.Errorf("cycles %d, the per-line scan %d", gotClock.Now(), wantClock.Now())
			}
			if again := got.RediscoverFailures(); again != 0 {
				t.Errorf("a second scan found %d more", again)
			}
		})
	}
}

func TestHandleUnawareFailure(t *testing.T) {
	inject := failmap.New(4 * failmap.PageSize)
	inject.SetLineFailed(0) // page 0 imperfect
	k := New(Config{PCMPages: 4, Inject: inject})
	r, _ := k.MmapRelaxed(2) // pages 0,1

	// A failure-unaware process cannot adapt: the OS replaces frame 0 with
	// a perfect frame transparently (same virtual address).
	oldFrame := r.Frame(0)
	borrowed, ok := k.RemapPageAt(r.Base)
	newFrame := r.Frame(0)
	if !ok || borrowed {
		t.Fatal("perfect PCM remained; should not borrow")
	}
	if newFrame == oldFrame {
		t.Fatal("frame not replaced")
	}
	if fm := k.MapFailures(r); fm.FailedLines() != 0 {
		t.Fatal("region still shows failures after remap")
	}
	// The old imperfect frame returned to the pool for failure-aware use.
	if k.FreePCMPages() == 0 {
		t.Fatal("imperfect frame not recycled")
	}
	// Reverse translation follows the new frame.
	if frame, _, ok := k.Translate(r.Base); !ok || frame != newFrame {
		t.Fatalf("Translate after remap = %d, want %d", frame, newFrame)
	}
}

func TestHandleUnawareFailureBorrowsWhenPoolDry(t *testing.T) {
	inject := failmap.New(failmap.PageSize) // the only page is imperfect
	inject.SetLineFailed(3)
	k := New(Config{PCMPages: 1, Inject: inject})
	r, _ := k.MmapRelaxed(1)
	borrowed, ok := k.RemapPageAt(r.Base)
	if !ok || !borrowed || k.Borrows() != 1 {
		t.Fatal("should have borrowed DRAM for the unaware process")
	}
}

func TestInjectRandomDynamicFailure(t *testing.T) {
	k := New(Config{PCMPages: 16})
	h := &recordingHandler{}
	k.RegisterFailureHandler(h)
	rng := rand.New(rand.NewSource(1))
	if k.InjectRandomDynamicFailure(rng) {
		t.Fatal("injected with nothing mapped")
	}
	k.MmapRelaxed(4)
	for i := 0; i < 10; i++ {
		if !k.InjectRandomDynamicFailure(rng) {
			t.Fatal("injection failed with mapped memory")
		}
	}
	if len(h.fails) != 10 {
		t.Fatalf("handler saw %d failures, want 10", len(h.fails))
	}
	seen := map[uint64]bool{}
	for _, vaddr := range h.fails {
		if seen[vaddr] {
			t.Fatal("duplicate failure address")
		}
		seen[vaddr] = true
	}
}
