package pcm

import (
	"math/rand"
	"reflect"
	"testing"

	"wearmem/internal/failmap"
)

// skewedPerWrite is the literal draw SkewedLines replaced at four sites.
func skewedPerWrite(rng *rand.Rand, lines int, dst []int) {
	hot := lines / 4
	for i := range dst {
		l := rng.Intn(hot)
		if rng.Intn(10) == 0 {
			l = rng.Intn(lines)
		}
		dst[i] = l
	}
}

// checkSkewedStream holds SkewedLines on a module of the given size to
// skewedPerWrite over the generator newRng returns: same 1000 values, and
// the generator left at the same point, whatever the block size.
func checkSkewedStream(t *testing.T, pages int, newRng func() *rand.Rand) {
	t.Helper()
	d := NewDevice(Config{Size: pages * failmap.PageSize}, nil)
	ref := newRng()
	want := make([]int, 1000)
	skewedPerWrite(ref, d.Lines(), want)
	wantNext := ref.Int63()
	for _, block := range []int{1, 7, 512, 1000} {
		rng := newRng()
		got := make([]int, 0, len(want))
		buf := make([]int, block)
		for len(got) < len(want) {
			run := buf[:min(block, len(want)-len(got))]
			d.SkewedLines(rng, run)
			got = append(got, run...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d pages, block %d: stream differs from the inline draw", pages, block)
		}
		if rng.Int63() != wantNext {
			t.Fatalf("%d pages, block %d: generator over- or under-drawn", pages, block)
		}
	}
}

// TestSkewedLinesStream pins the traffic helper to the inline draw it
// replaced, so no recorded wear study moves. 512 pages is tab2's template;
// 3, 5 and 96 pages are not powers of two, where a draw is reduced by a
// modulo and not a mask.
func TestSkewedLinesStream(t *testing.T) {
	for _, pages := range []int{512, 3, 5, 96} {
		checkSkewedStream(t, pages, func() *rand.Rand { return rand.New(rand.NewSource(42)) })
	}
}

// redrawSource is a seeded source whose every third value is one of the 200
// highest 31-bit candidates. Int31n redraws the top 8 of them for n = 10 and
// the top 2³¹ mod n for any other n that is not a power of two (32 and 128
// for a 3-page module's 48 hot and 192 lines); the seeded stream gets there
// with probability 8 / 2³¹, so nothing else reaches that branch.
type redrawSource struct {
	rand.Source
	calls int
}

func (s *redrawSource) Int63() int64 {
	s.calls++
	if s.calls%3 == 0 {
		return int64(1<<31-1-s.calls/3%200) << 32
	}
	return s.Source.Int63()
}

// TestSkewedLinesRedraws: the stream matches the inline draw through
// Int31n's rejection loop, at each of the three draws of a line.
func TestSkewedLinesRedraws(t *testing.T) {
	newRng := func() *rand.Rand { return rand.New(&redrawSource{Source: rand.NewSource(42)}) }
	for _, pages := range []int{3, 512} {
		checkSkewedStream(t, pages, newRng)
	}
	// The reference itself must have redrawn at every bound of the 3-page
	// module, or the script proves nothing.
	src := &redrawSource{Source: rand.NewSource(42)}
	rng := rand.New(src)
	var redraws [3]int
	intn := func(which, n int) int {
		before := src.calls
		v := rng.Intn(n)
		redraws[which] += src.calls - before - 1
		return v
	}
	for i := 0; i < 1000; i++ {
		intn(0, 48)
		if intn(1, 10) == 0 {
			intn(2, 192)
		}
	}
	for which, n := range redraws {
		if n == 0 {
			t.Errorf("the scripted source never made draw %d of a line redraw", which)
		}
	}
}

// TestWearBlockAllocatesNothing: drawing a 512-line block and writing it to
// healthy lines, the whole of a wear loop between two failures, stays off
// the host heap.
func TestWearBlockAllocatesNothing(t *testing.T) {
	d, lines := wearBenchDevice()
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, failmap.LineSize)
	if allocs := testing.AllocsPerRun(20, func() {
		d.SkewedLines(rng, lines)
		if n, err := d.WriteRun(lines, buf); n != len(lines) || err != nil {
			t.Fatalf("WriteRun = %d, %v", n, err)
		}
	}); allocs != 0 {
		t.Errorf("a 512-line block allocates %v times", allocs)
	}
}

// wearStudyConfig is the low-endurance module tab2 wears (harness.wornFailureMaps).
func wearStudyConfig(wl WearLeveling, pages int, seed int64) Config {
	return Config{
		Size: pages * failmap.PageSize, Endurance: 300, Variation: 0.15,
		WearLeveling: wl, GapInterval: 1, Seed: seed,
	}
}

// wearPerWrite is the wear loop Tab2 ran before WriteRun, kept as the
// reference: a fresh device per target, one Write per drawn line, the rate
// and the buffer polled around every write.
func wearPerWrite(wl WearLeveling, pages int, target float64, seed int64) *Device {
	dev := NewDevice(wearStudyConfig(wl, pages, seed), nil)
	rng := rand.New(rand.NewSource(seed + 7))
	buf := make([]byte, failmap.LineSize)
	var l [1]int
	for dev.FailureRate() < target {
		skewedPerWrite(rng, dev.Lines(), l[:])
		dev.Write(l[0], buf)
		for dev.BufferLen() > 0 {
			dev.Drain()
		}
	}
	return dev
}

// TestWearThroughMatchesPerWriteLoop: one device worn through ascending
// targets in WriteRun blocks is, at each crossing, the device a fresh
// per-write run to that target alone produces — same failure map, same
// write and gap-carry totals — so the chained pass cannot move tab2.
func TestWearThroughMatchesPerWriteLoop(t *testing.T) {
	const pages = 64
	targets := []float64{0.10, 0.25, 0.50}
	for _, wl := range []WearLeveling{StartGap, NoWearLeveling} {
		for _, seed := range []int64{1, 42, 311} {
			dev := NewDevice(wearStudyConfig(wl, pages, seed), nil)
			crossed := 0
			dev.WearThrough(rand.New(rand.NewSource(seed+7)), targets, func(i int) {
				crossed++
				ref := wearPerWrite(wl, pages, targets[i], seed)
				if !dev.FailMap().Equal(ref.FailMap()) {
					t.Errorf("policy %d seed %d target %.2f: failure maps differ", wl, seed, targets[i])
				}
				if dev.TotalWrites() != ref.TotalWrites() || dev.GapCarries() != ref.GapCarries() {
					t.Errorf("policy %d seed %d target %.2f: writes %d carries %d, per-write loop %d / %d",
						wl, seed, targets[i], dev.TotalWrites(), dev.GapCarries(), ref.TotalWrites(), ref.GapCarries())
				}
			})
			if crossed != len(targets) {
				t.Errorf("policy %d seed %d: %d of %d targets reported", wl, seed, crossed, len(targets))
			}
		}
	}
}

// BenchmarkSkewedLines is one op = drawing one 512-line block for tab2's
// template.
func BenchmarkSkewedLines(b *testing.B) {
	d, lines := wearBenchDevice()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.SkewedLines(rng, lines)
	}
}

// BenchmarkWearThrough is one op = tab2's no-leveling template driven from
// its 25% crossing to its next failure: the stretch tab2 spends most of its
// wall in, a number of writes the seeds fix onto a dead hot quarter and a
// healthy rest. ns/line is the wear loop's whole cost per write, draw, write
// and polls.
func BenchmarkWearThrough(b *testing.B) {
	worn := NewDevice(wearStudyConfig(NoWearLeveling, 512, 42), nil)
	worn.WearThrough(rand.New(rand.NewSource(49)), []float64{0.25}, func(int) {})
	img := worn.Snapshot()
	next := float64(worn.FailedLines()+1) / float64(worn.Lines())
	var writes uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := NewDeviceFromImage(img, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		d.WearThrough(rand.New(rand.NewSource(50)), []float64{next}, func(int) {})
		writes += d.TotalWrites() - worn.TotalWrites()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(writes), "ns/line")
	b.ReportMetric(float64(writes)/float64(b.N), "lines/op")
}
