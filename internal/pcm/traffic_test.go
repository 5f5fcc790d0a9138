package pcm

import (
	"fmt"
	"math"
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

// trafficSeeds are the seeds the stream is held to math/rand at: small ones,
// and the extremes of int64 and of the int32 range math/rand reduces a seed
// into.
var trafficSeeds = []int64{0, 1, 42, -1, 1<<31 - 1, 1 << 40, math.MinInt64}

// draw is one call a Traffic copies from math/rand, made on both; a value
// is returned as its bits.
type draw struct {
	name string
	got  func(*Traffic) uint64
	want func(*rand.Rand) uint64
}

func intnDraw(n int) draw {
	return draw{fmt.Sprintf("Intn(%d)", n),
		func(t *Traffic) uint64 { return uint64(t.Intn(n)) },
		func(r *rand.Rand) uint64 { return uint64(r.Intn(n)) }}
}

// draws are Int63, Float64, and Intn at powers of two, at the bounds the wear
// studies and the kv scenario's value sizes use, and at the largest bound
// Int31n takes.
var draws = []draw{
	{"Int63", func(t *Traffic) uint64 { return uint64(t.int63()) }, func(r *rand.Rand) uint64 { return uint64(r.Int63()) }},
	{"Float64", func(t *Traffic) uint64 { return math.Float64bits(t.Float64()) }, func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) }},
	intnDraw(1), intnDraw(10), intnDraw(193), intnDraw(449), intnDraw(1 << 16), intnDraw(1<<31 - 1),
}

// interleaved is the i-th draw of a test that interleaves all of them, in an
// order that rotates every round.
func interleaved(i int) draw { return draws[(i+i/len(draws))%len(draws)] }

// TestTrafficMatchesMathRand: ten million draws of each seed's stream, Int63,
// Float64 and Intn interleaved, are math/rand's, across thousands of blocks.
func TestTrafficMatchesMathRand(t *testing.T) {
	for _, seed := range trafficSeeds {
		ref, got := rand.New(rand.NewSource(seed)), NewTraffic(seed)
		for i := 0; i < 10_000_000; i++ {
			d := interleaved(i)
			if v, want := d.got(got), d.want(ref); v != want {
				t.Fatalf("seed %d, draw %d (%s): %#x, math/rand %#x", seed, i, d.name, v, want)
			}
		}
	}
}

// FuzzTrafficMatchesMathRand: from any point of any seed's stream, the next
// 4096 draws are math/rand's, in any interleaving: ops picks each draw in
// turn, and no ops is Int63 alone.
func FuzzTrafficMatchesMathRand(f *testing.F) {
	for _, seed := range trafficSeeds {
		for _, skip := range []uint16{0, lag - 1, lag, trafficBlock - 1, trafficBlock} {
			f.Add(seed, skip, []byte(nil))
			f.Add(seed, skip, []byte{1, 3, 5, 0, 7, 2, 6, 4})
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, skip uint16, ops []byte) {
		ref, got := rand.New(rand.NewSource(seed)), NewTraffic(seed)
		for i := 0; i < int(skip); i++ {
			ref.Int63()
			got.int63()
		}
		for i := 0; i < 4096; i++ {
			d := draws[0]
			if len(ops) > 0 {
				d = draws[int(ops[i%len(ops)])%len(draws)]
			}
			if v, want := d.got(got), d.want(ref); v != want {
				t.Fatalf("seed %d, draw %d (%s) after %d: %#x, math/rand %#x", seed, i, d.name, skip, v, want)
			}
		}
	})
}

// TestTrafficDrawRedraws: Float64's redraw of a quotient that rounds to 1 and
// Int31n's rejection loop are math/rand's. The seeded stream reaches either
// about once in 2⁵⁴ or (2³¹ mod n) in 2³¹ draws, so a scripted source makes
// every third value one of the 500 highest Int63 values, each of which
// rounds to 1 over 2⁶³ and is above the Int31n ceiling of every bound that
// is not a power of two. The stream is built from the window of it.
func TestTrafficDrawRedraws(t *testing.T) {
	newSource := func() *scriptedSource {
		return &scriptedSource{Source: rand.NewSource(42), script: func(k int) int64 { return math.MaxInt64 - int64(k%500) }}
	}
	src := newSource()
	ref, got := rand.New(src), windowOf(newSource())
	redrawn := map[string]int{}
	for i := 0; ; i++ {
		d, before := interleaved(i), src.calls
		want := d.want(ref)
		if src.calls > lag {
			break
		}
		if src.calls-before > 1 {
			redrawn[d.name]++
		}
		if v := d.got(got); v != want {
			t.Fatalf("draw %d (%s): %#x, math/rand %#x", i, d.name, v, want)
		}
	}
	// Every draw but Int63 and the powers of two must have redrawn inside
	// the window, or the script proves nothing.
	for _, name := range []string{"Float64", "Intn(10)", "Intn(193)", "Intn(449)", "Intn(2147483647)"} {
		if redrawn[name] == 0 {
			t.Errorf("the scripted source never made %s redraw", name)
		}
	}
}

// checkSkewedStream holds SkewedLines on a module of the given size to
// skewedPerWrite: the same first n lines from the Traffic newTraffic
// returns as from the math/rand generator newRng returns, and the stream
// left at the same point, whatever the block size.
func checkSkewedStream(t *testing.T, pages, n int, newRng func() *rand.Rand, newTraffic func() *Traffic) {
	t.Helper()
	d := NewDevice(Config{Size: pages * failmap.PageSize}, nil)
	ref := newRng()
	want := make([]int, n)
	skewedPerWrite(ref, d.Lines(), want)
	wantNext := ref.Int63()
	for _, block := range []int{1, 7, 512, 1000} {
		traffic := newTraffic()
		got := make([]int, 0, len(want))
		buf := make([]int, block)
		for len(got) < len(want) {
			run := buf[:min(block, len(want)-len(got))]
			d.SkewedLines(traffic, run)
			got = append(got, run...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d pages, block %d: stream differs from the inline draw", pages, block)
		}
		if traffic.int63() != wantNext {
			t.Fatalf("%d pages, block %d: stream over- or under-drawn", pages, block)
		}
	}
}

// TestSkewedLinesStream pins the traffic helper to the inline draw it
// replaced, so no recorded wear study moves. 512 pages is tab2's template;
// 3, 5 and 96 pages are not powers of two, where a draw is reduced by a
// modulo and not a mask. 5000 lines are about five blocks of the stream.
func TestSkewedLinesStream(t *testing.T) {
	for _, pages := range []int{512, 3, 5, 96} {
		checkSkewedStream(t, pages, 5000,
			func() *rand.Rand { return rand.New(rand.NewSource(42)) },
			func() *Traffic { return NewTraffic(42) })
	}
}

// scriptedSource is a seeded source whose k-th of every third value is
// script(k).
type scriptedSource struct {
	rand.Source
	calls  int
	script func(k int) int64
}

func (s *scriptedSource) Int63() int64 {
	s.calls++
	if s.calls%3 == 0 {
		return s.script(s.calls / 3)
	}
	return s.Source.Int63()
}

// newRedrawSource's scripted values are the 200 highest 31-bit candidates.
// Int31n redraws the top 8 of them for n = 10 and the top 2³¹ mod n for any
// other n that is not a power of two (32 and 128 for a 3-page module's 48
// hot and 192 lines); the seeded stream gets there with probability 8 / 2³¹,
// so nothing else reaches that branch.
func newRedrawSource() *scriptedSource {
	return &scriptedSource{Source: rand.NewSource(42), script: func(k int) int64 { return int64(1<<31-1-k%200) << 32 }}
}

// windowOf is the stream whose first lag values are src's next ones. It
// starts with exactly those values, scripted ones included.
func windowOf(src rand.Source) *Traffic {
	var w [lag]uint64
	for k := range w {
		w[k] = uint64(src.Int63())
	}
	return trafficFrom(&w)
}

func redrawWindow() *Traffic { return windowOf(newRedrawSource()) }

// windowLines runs the inline draw of a module with the given line count on
// the scripted source and returns how many lines it draws, and the value
// after them, inside the window, and how many times each of a line's three
// draws was redrawn in those lines.
func windowLines(lines int) (n int, redraws [3]int) {
	src := newRedrawSource()
	rng := rand.New(src)
	intn := func(which, bound int) int {
		before := src.calls
		v := rng.Intn(bound)
		redraws[which] += src.calls - before - 1
		return v
	}
	for {
		counted := redraws
		intn(0, lines/4)
		if intn(1, 10) == 0 {
			intn(2, lines)
		}
		if src.calls >= lag {
			return n, counted
		}
		n++
	}
}

// TestSkewedLinesRedraws: the stream matches the inline draw through
// Int31n's rejection loop, at each of the three draws of a line. The
// scripted values are not any seed's, so the stream is built from the
// window of them and held to the lines whose draws fall inside it.
func TestSkewedLinesRedraws(t *testing.T) {
	for _, pages := range []int{3, 512} {
		n, redraws := windowLines(pages * failmap.LinesPerPage)
		checkSkewedStream(t, pages, n, func() *rand.Rand { return rand.New(newRedrawSource()) }, redrawWindow)
		// The reference itself must have redrawn at every bound of the
		// 3-page module inside the window, or the script proves nothing.
		for which, r := range redraws {
			if pages == 3 && r == 0 {
				t.Errorf("the scripted source never made draw %d of a line redraw in %d lines", which, n)
			}
		}
	}
}

// TestWearBlockAllocatesNothing: drawing a 512-line block and writing it to
// healthy lines, the whole of a wear loop between two failures, stays off
// the host heap.
func TestWearBlockAllocatesNothing(t *testing.T) {
	d, lines := wearBenchDevice()
	traffic := NewTraffic(1)
	buf := make([]byte, failmap.LineSize)
	if allocs := testing.AllocsPerRun(20, func() {
		d.SkewedLines(traffic, lines)
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
			dev.WearThrough(seed+7, targets, func(i int) {
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
	traffic := NewTraffic(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.SkewedLines(traffic, lines)
	}
}

// BenchmarkWearThrough is one op = tab2's no-leveling template driven from
// its 25% crossing to its next failure: the stretch tab2 spends most of its
// wall in, a number of writes the seeds fix onto a dead hot quarter and a
// healthy rest. ns/line is the wear loop's whole cost per write, draw, write
// and polls.
func BenchmarkWearThrough(b *testing.B) {
	worn := NewDevice(wearStudyConfig(NoWearLeveling, 512, 42), nil)
	worn.WearThrough(49, []float64{0.25}, func(int) {})
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
		d.WearThrough(50, []float64{next}, func(int) {})
		writes += d.TotalWrites() - worn.TotalWrites()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(writes), "ns/line")
	b.ReportMetric(float64(writes)/float64(b.N), "lines/op")
}
