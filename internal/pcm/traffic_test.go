package pcm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/probe"
	"wearmem/internal/seeded"
	"wearmem/internal/stats"
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

// draw is one call a seeded.Stream copies from math/rand, made on both; a value
// is returned as its bits.
type draw struct {
	name string
	got  func(*seeded.Stream) uint64
	want func(*rand.Rand) uint64
}

func intnDraw(n int) draw {
	return draw{fmt.Sprintf("Intn(%d)", n),
		func(t *seeded.Stream) uint64 { return uint64(t.Intn(n)) },
		func(r *rand.Rand) uint64 { return uint64(r.Intn(n)) }}
}

// draws are Int63, Float64, and Intn at powers of two, at the bounds the wear
// studies and the kv scenario's value sizes use, and at the largest bound
// Int31n takes.
var draws = []draw{
	{"Int63", func(t *seeded.Stream) uint64 { return uint64(t.Int63()) }, func(r *rand.Rand) uint64 { return uint64(r.Int63()) }},
	{"Float64", func(t *seeded.Stream) uint64 { return math.Float64bits(t.Float64()) }, func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) }},
	intnDraw(1), intnDraw(10), intnDraw(193), intnDraw(449), intnDraw(1 << 16), intnDraw(1<<31 - 1),
}

// interleaved is the i-th draw of a test that interleaves all of them, in an
// order that rotates every round.
func interleaved(i int) draw { return draws[(i+i/len(draws))%len(draws)] }

// TestTrafficMatchesMathRand: ten million draws of each seed's stream, Int63,
// Float64 and Intn interleaved, are math/rand's, across thousands of blocks.
func TestTrafficMatchesMathRand(t *testing.T) {
	for _, seed := range trafficSeeds {
		ref, got := rand.New(rand.NewSource(seed)), seeded.New(seed)
		for i := 0; i < 10_000_000; i++ {
			d := interleaved(i)
			if v, want := d.got(got), d.want(ref); v != want {
				t.Fatalf("seed %d, draw %d (%s): %#x, math/rand %#x", seed, i, d.name, v, want)
			}
		}
	}
}

// streamBlock is how many values a seeded.Stream makes at a time.
const streamBlock = 2048

// FuzzTrafficMatchesMathRand: from any point of any seed's stream, the next
// 4096 draws are math/rand's, in any interleaving: ops picks each draw in
// turn, and no ops is Int63 alone. The seed corpus starts at the ends of
// the first lag window and of the first block.
func FuzzTrafficMatchesMathRand(f *testing.F) {
	for _, seed := range trafficSeeds {
		for _, skip := range []uint16{0, seeded.Lag - 1, seeded.Lag, streamBlock - 1, streamBlock} {
			f.Add(seed, skip, []byte(nil))
			f.Add(seed, skip, []byte{1, 3, 5, 0, 7, 2, 6, 4})
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, skip uint16, ops []byte) {
		ref, got := rand.New(rand.NewSource(seed)), seeded.New(seed)
		for i := 0; i < int(skip); i++ {
			ref.Int63()
			got.Int63()
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
	ref, got := rand.New(src), seeded.FromSource(newSource())
	redrawn := map[string]int{}
	for i := 0; ; i++ {
		d, before := interleaved(i), src.calls
		want := d.want(ref)
		if src.calls > seeded.Lag {
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
// skewedPerWrite: the same first n lines from the stream newTraffic
// returns as from the math/rand generator newRng returns, and the stream
// left at the same point, whatever the block size.
func checkSkewedStream(t *testing.T, pages, n int, newRng func() *rand.Rand, newTraffic func() *seeded.Stream) {
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
		if traffic.Int63() != wantNext {
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
			func() *seeded.Stream { return seeded.New(42) })
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

// redrawWindow is the stream whose first Lag values are newRedrawSource's,
// scripted ones included.
func redrawWindow() *seeded.Stream { return seeded.FromSource(newRedrawSource()) }

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
		if src.calls >= seeded.Lag {
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
// healthy lines, the whole of the block path between two failures, stays
// off the host heap, and so does WearThrough's count-only step over the
// stretch tab2 spends most of its wall in: from a template's 25 % crossing
// up to the write that reaches its next line's endurance.
func TestWearBlockAllocatesNothing(t *testing.T) {
	d, lines := wearBenchDevice()
	traffic := seeded.New(1)
	buf := make([]byte, failmap.LineSize)
	if allocs := testing.AllocsPerRun(20, func() {
		d.SkewedLines(traffic, lines)
		if n, err := d.WriteRun(lines, buf); n != len(lines) || err != nil {
			t.Fatalf("WriteRun = %d, %v", n, err)
		}
	}); allocs != 0 {
		t.Errorf("a 512-line block allocates %v times", allocs)
	}

	worn := NewDevice(wearStudyConfig(NoWearLeveling, 64, 42), nil)
	worn.WearThrough(49, []float64{0.25}, func(int) {})
	traffic, written := seeded.New(50), worn.TotalWrites()
	writes, broken := flatten(worn.wear.writes, worn.wear.slots), flatten(worn.wear.broken, worn.wear.slots)
	if allocs := testing.AllocsPerRun(1, func() { worn.countWear(traffic, writes, broken) }); allocs != 0 {
		t.Errorf("counting %d writes allocates %v times", worn.TotalWrites()-written, allocs)
	}
	if worn.TotalWrites()-written < 1_000_000 {
		t.Errorf("the count-only step counted only %d writes", worn.TotalWrites()-written)
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
// reference WearThrough is held to: one Write per drawn line, the rate
// tested before every write and the buffer drained after it.
func wearPerWrite(d *Device, seed int64, targets []float64, reached func(i int)) {
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, failmap.LineSize)
	var l [1]int
	for i, target := range targets {
		for d.FailureRate() < target {
			skewedPerWrite(rng, d.Lines(), l[:])
			d.Write(l[0], buf)
			for d.BufferLen() > 0 {
				d.Drain()
			}
		}
		reached(i)
	}
}

// wearCase is a device, what it is seen by (a clock; the interrupt
// callbacks and a probe), how many of its lines fail before wearing starts,
// and the traffic seed and targets it is worn through.
type wearCase struct {
	cfg            Config
	clocked, wired bool
	pending        int
	seed           int64
	targets        []float64
}

// wearTwin is one device of a pair worn through the same case, one by
// WearThrough and one by wearPerWrite.
type wearTwin struct {
	d     *Device
	clock *stats.Clock
	log   []string
}

func newWearTwin(c wearCase) *wearTwin {
	w := &wearTwin{}
	if c.clocked {
		w.clock = stats.NewClock(stats.DefaultCosts())
	}
	// Each interrupt logs the simulated time it sees, so a write the clock
	// was not charged for by then shows in the log.
	now := func() stats.Cycles {
		if w.clock == nil {
			return 0
		}
		return w.clock.Now()
	}
	cfg := c.cfg
	if c.wired {
		cfg.Probe = func(p probe.Point, addr uint64) {
			w.log = append(w.log, fmt.Sprintf("probe %v %d at %d", p, addr, now()))
		}
	}
	w.d = NewDevice(cfg, w.clock)
	if c.wired {
		w.d.OnFailure(func() { w.log = append(w.log, fmt.Sprintf("failure at %d", now())) })
		w.d.OnBufferFull(func() { w.log = append(w.log, fmt.Sprintf("watermark at %d", now())) })
	}
	for l := w.d.Lines() - c.pending; l < w.d.Lines(); l++ {
		w.d.ForceFail(l, nil)
	}
	return w
}

// wearState is everything a twin shows at a target's crossing: the durable
// image (writes, endurance, correction entries, broken slots, the gap,
// clustering maps, parked lines, contents), the buffer accounting, the
// clock's counts and time, and the interrupt log.
type wearState struct {
	Image                        *DeviceImage
	Pushed, Invalidated, Drained uint64
	Counts                       []stats.Counter
	Now                          stats.Cycles
	Log                          []string
}

func (w *wearTwin) state() wearState {
	st := wearState{Image: w.d.Snapshot(), Log: slices.Clone(w.log)}
	st.Pushed, st.Invalidated, st.Drained = w.d.BufferAccounting()
	if w.clock != nil {
		st.Counts, st.Now = w.clock.Snapshot(), w.clock.Now()
	}
	return st
}

// checkWearThrough wears a pair of twins through c, one with WearThrough and
// one with the per-write loop, and fails where they differ at any crossing.
func checkWearThrough(t *testing.T, what string, c wearCase) {
	t.Helper()
	got, want := newWearTwin(c), newWearTwin(c)
	var gotAt, wantAt []wearState
	got.d.WearThrough(c.seed, c.targets, func(int) { gotAt = append(gotAt, got.state()) })
	wearPerWrite(want.d, c.seed, c.targets, func(int) { wantAt = append(wantAt, want.state()) })
	if len(gotAt) != len(c.targets) || len(wantAt) != len(c.targets) {
		t.Fatalf("%s: %d and %d of %d targets reported", what, len(gotAt), len(wantAt), len(c.targets))
	}
	for i, target := range c.targets {
		if f := firstDiff(gotAt[i], wantAt[i]); f != "" {
			if f == "Image" {
				f = "image field " + firstDiff(*gotAt[i].Image, *wantAt[i].Image)
			}
			t.Fatalf("%s, target %.3f: %s differs from the per-write loop's", what, target, f)
		}
	}
}

// firstDiff names the first field two structs of one type differ in, or
// returns "" when they are deeply equal.
func firstDiff(a, b any) string {
	g, w := reflect.ValueOf(a), reflect.ValueOf(b)
	for f := range g.NumField() {
		if !reflect.DeepEqual(g.Field(f).Interface(), w.Field(f).Interface()) {
			return g.Type().Field(f).Name
		}
	}
	return ""
}

// TestWearThroughMatchesPerWriteLoop: one device worn through ascending
// targets by WearThrough is, at each crossing, the device the per-write
// loop leaves — same image, buffer accounting, clock and interrupts — so
// the chained pass cannot move tab2, and neither the count-only step nor
// the block path overshoots a target. The corners are tab2's two templates
// (at 64 pages, to 50 %), and to 25 %: each thing that can see a write (a
// clock, contents, callbacks and a probe), failures pending when
// wearing starts (one short of the watermark), clustering at the seeds that
// once overshot the 10 % target, and a 48-page module, whose hot quarter
// and line count are not powers of two, so its draws reduce by a modulo;
// at both of its seeds a draw redraws before 5 %.
func TestWearThroughMatchesPerWriteLoop(t *testing.T) {
	tab2 := []float64{0.10, 0.25, 0.50}
	early := tab2[:2]
	for _, corner := range []struct {
		name    string
		pages   int
		seeds   []int64
		targets []float64
		tune    func(*wearCase)
	}{
		{"start-gap", 64, []int64{1, 42, 311}, tab2, func(c *wearCase) { c.cfg.WearLeveling = StartGap }},
		{"no leveling", 64, []int64{1, 42, 311}, tab2, func(*wearCase) {}},
		{"clock", 64, []int64{42}, early, func(c *wearCase) { c.clocked = true }},
		{"contents", 64, []int64{42}, early, func(c *wearCase) { c.cfg.TrackData = true }},
		{"interrupts", 64, []int64{42}, early, func(c *wearCase) { c.clocked, c.wired = true, true }},
		{"start-gap interrupts", 64, []int64{42}, early, func(c *wearCase) {
			c.cfg.WearLeveling, c.clocked, c.wired = StartGap, true, true
		}},
		{"pending failures", 64, []int64{42}, early, func(c *wearCase) { c.clocked, c.wired, c.pending = true, true, 27 }},
		{"1-page clustering", 64, []int64{4, 27}, early, func(c *wearCase) {
			c.cfg.ClusterPages, c.clocked, c.wired = 1, true, true
		}},
		{"2-page clustering", 64, []int64{5, 19}, early, func(c *wearCase) { c.cfg.ClusterPages = 2 }},
		{"48 pages", 48, []int64{17, 44}, early, func(*wearCase) {}},
	} {
		for _, seed := range corner.seeds {
			c := wearCase{cfg: wearStudyConfig(NoWearLeveling, corner.pages, seed), seed: seed + 7, targets: corner.targets}
			corner.tune(&c)
			checkWearThrough(t, fmt.Sprintf("%s, seed %d", corner.name, seed), c)
		}
	}
}

// FuzzWearThroughMatchesPerWriteLoop holds WearThrough to the per-write
// loop on every corner modelConfig decodes, clock, callbacks and probe
// attached, through two targets: target's low seven bits set the higher
// one (a fraction of the module, up to all of it), half of which is the
// lower, and its top bit grows the module to 48 pages, where draws redraw
// and reduce by a modulo. A module of infinite endurance never fails a
// line, so it is worn to a rate of zero only.
func FuzzWearThroughMatchesPerWriteLoop(f *testing.F) {
	for _, in := range wearFuzzSeeds {
		f.Add(in[0], in[1], in[2])
	}
	f.Fuzz(func(t *testing.T, shape, wear, target byte) {
		c := wearCase{cfg: modelConfig(shape, wear), clocked: true, wired: true, seed: int64(shape)<<8 | int64(wear)}
		if target&0x80 != 0 {
			c.cfg.Size = 48 * failmap.PageSize
		}
		r := float64(target&0x7f) / 0x7f
		if c.cfg.Endurance == 0 {
			r = 0
		}
		c.targets = []float64{r / 2, r}
		checkWearThrough(t, fmt.Sprintf("shape %d wear %d target %#x", shape, wear, target), c)
	})
}

// wearFuzzSeeds are the test's corners in modelConfig's terms (shape, wear,
// target): no leveling, start-gap ψ = 1, 1-, 2- and 8-page clustering (the
// 1- and 2-page ones at wears where a block overshot a target before
// WriteRun stopped at an absorbed failure), a tiny buffer, contents, and
// start-gap ψ = 3 over contents, on 8-page modules; and 48-page ones, two of
// which redraw a draw before their first target (wear 94 after 6 015
// writes, wear 51 after 24 600). The last five are start-gap without
// contents, which counts its writes (countGapWear): ψ = 3 and 7, a tiny
// buffer, 64 pages (whose spare slot is a wear chunk of its own) and 48.
var wearFuzzSeeds = [][3]byte{
	{0, 0, 64}, {0, 9, 127}, {1, 3, 64}, {4, 5, 13}, {5, 20, 64}, {6, 4, 100},
	{7, 5, 127}, {2 + 28, 6, 64}, {28, 7, 64}, {4 + 7 + 28, 8, 64},
	{0, 94, 0x80 | 64}, {0, 51, 0x80 | 127}, {0, 11, 0x80 | 40},
	{2, 10, 127}, {3, 12, 127}, {1 + 7, 13, 64}, {2 + 56, 9, 64}, {3, 33, 0x80 | 100},
}

// BenchmarkSkewedLines is one op = drawing one 512-line block for tab2's
// template.
func BenchmarkSkewedLines(b *testing.B) {
	d, lines := wearBenchDevice()
	traffic := seeded.New(1)
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
