package pcm

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/stats"
)

func lineData(b byte) []byte {
	d := make([]byte, failmap.LineSize)
	for i := range d {
		d[i] = b
	}
	return d
}

func TestReadBackWrites(t *testing.T) {
	d := NewDevice(Config{Size: 4 * failmap.PageSize, TrackData: true}, nil)
	d.Write(10, lineData(0xAB))
	got := make([]byte, failmap.LineSize)
	d.Read(10, got)
	if !bytes.Equal(got, lineData(0xAB)) {
		t.Fatal("read did not return written data")
	}
	// Infinite endurance: nothing fails.
	for i := 0; i < 1000; i++ {
		d.Write(10, lineData(byte(i)))
	}
	if d.FailedLines() != 0 {
		t.Fatal("failures with infinite endurance")
	}
}

func TestEnduranceExhaustionRaisesInterrupt(t *testing.T) {
	clock := stats.NewClock(stats.DefaultCosts())
	d := NewDevice(Config{Size: failmap.PageSize, Endurance: 5, TrackData: true}, clock)
	interrupts := 0
	d.OnFailure(func() { interrupts++ })

	for i := 0; i < 4; i++ {
		if err := d.Write(7, lineData(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if d.FailedLines() != 0 {
		t.Fatal("failed before endurance exhausted")
	}
	if err := d.Write(7, lineData(0x55)); err != nil {
		t.Fatal(err)
	}
	if d.FailedLines() != 1 || interrupts != 1 {
		t.Fatalf("failed=%d interrupts=%d, want 1/1", d.FailedLines(), interrupts)
	}
	if !d.Unavailable(7) {
		t.Fatal("failed line should be unavailable")
	}
	// Forwarding: the last written data is still readable from the buffer.
	got := make([]byte, failmap.LineSize)
	d.Read(7, got)
	if !bytes.Equal(got, lineData(0x55)) {
		t.Fatal("failure buffer did not forward parked data")
	}
	// Drain delivers the record.
	rec, ok := d.Drain()
	if !ok || rec.Line != 7 || rec.Fake || !bytes.Equal(rec.Data, lineData(0x55)) {
		t.Fatalf("Drain = %+v ok=%v", rec, ok)
	}
	if _, ok := d.Drain(); ok {
		t.Fatal("buffer should be empty")
	}
	if clock.Count(stats.EvInterrupt) != 1 {
		t.Fatalf("interrupt events = %d", clock.Count(stats.EvInterrupt))
	}
}

func TestBufferWatermarkStallsWrites(t *testing.T) {
	d := NewDevice(Config{
		Size: failmap.PageSize, Endurance: 1,
		BufferCap: 6, BufferReserve: 2, TrackData: true,
	}, nil)
	full := 0
	d.OnBufferFull(func() { full++ })

	// Endurance 1: every first write to a line fails. Watermark at 4 entries.
	for i := 0; i < 4; i++ {
		if err := d.Write(i, lineData(byte(i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if !d.Stalled() || full != 1 {
		t.Fatalf("stalled=%v full=%d after watermark", d.Stalled(), full)
	}
	if err := d.Write(10, lineData(1)); err != ErrStalled {
		t.Fatalf("stalled write returned %v, want ErrStalled", err)
	}
	// Draining one entry un-stalls.
	if _, ok := d.Drain(); !ok {
		t.Fatal("drain failed")
	}
	if d.Stalled() {
		t.Fatal("still stalled after drain")
	}
	if err := d.Write(10, lineData(1)); err != nil {
		t.Fatalf("write after drain: %v", err)
	}
}

func TestDuplicateAddressInvalidatesOlderEntry(t *testing.T) {
	d := NewDevice(Config{Size: failmap.PageSize, BufferCap: 8, TrackData: true}, nil)
	// Inject two failures at the same line manually via endurance=1 writes:
	// after the first failure the line is broken, further writes wear but do
	// not re-fail. Instead test pushBuffer semantics directly.
	d.pushBuffer(FailureRecord{Line: 3, Data: lineData(1)})
	d.pushBuffer(FailureRecord{Line: 5, Data: lineData(2)})
	d.pushBuffer(FailureRecord{Line: 3, Data: lineData(9)})
	if d.BufferLen() != 2 {
		t.Fatalf("BufferLen = %d, want 2 (older duplicate invalidated)", d.BufferLen())
	}
	rec, _ := d.Drain()
	if rec.Line != 5 {
		t.Fatalf("first drained = %d, want 5 (line 3's old entry was dropped)", rec.Line)
	}
	rec, _ = d.Drain()
	if rec.Line != 3 || rec.Data[0] != 9 {
		t.Fatalf("second drained = %+v, want line 3 data 9", rec)
	}
}

func TestClusteredFailureSurfacesAtEdgeWithFakeEntries(t *testing.T) {
	d := NewDevice(Config{
		Size: 4 * failmap.PageSize, Endurance: 1,
		ClusterPages: 2, TrackData: true,
	}, nil)
	// First write to line 70 (region 0, even → clusters at top) fails.
	d.Write(70, lineData(0x77))
	// Region 0 of 2 pages: 2 metadata lines (fake) + 1 real failure.
	if d.BufferLen() != 3 {
		t.Fatalf("BufferLen = %d, want 3", d.BufferLen())
	}
	r1, _ := d.Drain()
	r2, _ := d.Drain()
	r3, _ := d.Drain()
	if !r1.Fake || !r2.Fake || r3.Fake {
		t.Fatalf("fake flags wrong: %v %v %v", r1.Fake, r2.Fake, r3.Fake)
	}
	if r1.Line != 0 || r2.Line != 1 || r3.Line != 2 {
		t.Fatalf("surfaced lines %d,%d,%d, want 0,1,2", r1.Line, r2.Line, r3.Line)
	}
	// Line 70 itself remains usable: redirected to working storage, data intact.
	if d.Unavailable(70) {
		t.Fatal("line 70 should be redirected, not unavailable")
	}
	got := make([]byte, failmap.LineSize)
	d.Read(70, got)
	if !bytes.Equal(got, lineData(0x77)) {
		t.Fatal("redirected line lost its data")
	}
	fm := d.FailMap()
	if fm.FailedLines() != 3 || !fm.LineFailed(0) || !fm.LineFailed(1) || !fm.LineFailed(2) {
		t.Fatalf("FailMap wrong: %d failed", fm.FailedLines())
	}
}

func TestStartGapSpreadsWear(t *testing.T) {
	// Hammer one line; with start-gap the wear must spread across slots.
	const size = 4 * failmap.PageSize
	sg := NewDevice(Config{Size: size, WearLeveling: StartGap, GapInterval: 10}, nil)
	raw := NewDevice(Config{Size: size}, nil)
	for i := 0; i < 50000; i++ {
		sg.Write(5, lineData(1))
		raw.Write(5, lineData(1))
	}
	if raw.WriteCount(5) != 50000 {
		t.Fatalf("raw device write count = %d", raw.WriteCount(5))
	}
	// Start-gap: maximum per-slot wear far below the total.
	var maxWear uint64
	for s := 0; s < sg.Lines()+1; s++ {
		if w := sg.WriteCount(s); w > maxWear {
			maxWear = w
		}
	}
	if maxWear >= 50000/2 {
		t.Fatalf("start-gap max slot wear = %d of 50000, not spreading", maxWear)
	}
	if sg.GapCarries() == 0 {
		t.Fatal("start-gap never moved the gap")
	}
}

func TestStartGapPreservesData(t *testing.T) {
	d := NewDevice(Config{
		Size: failmap.PageSize, WearLeveling: StartGap,
		GapInterval: 3, TrackData: true,
	}, nil)
	// Write distinct data to every line, then churn writes to force many gap
	// rotations, then verify all lines still read back correctly.
	for l := 0; l < d.Lines(); l++ {
		d.Write(l, lineData(byte(l)))
	}
	for i := 0; i < 5000; i++ {
		l := i % d.Lines()
		d.Write(l, lineData(byte(l)))
	}
	got := make([]byte, failmap.LineSize)
	for l := 0; l < d.Lines(); l++ {
		d.Read(l, got)
		if got[0] != byte(l) {
			t.Fatalf("line %d reads %d after gap rotation, want %d", l, got[0], byte(l))
		}
	}
}

func TestVariedEnduranceDistribution(t *testing.T) {
	d := NewDevice(Config{
		Size: 64 * failmap.PageSize, Endurance: 1000, Variation: 0.25, Seed: 3,
	}, nil)
	d.limit(d.wear.slots - 1) // draw every slot
	var sum float64
	min, max := math.Inf(1), math.Inf(-1)
	for _, e := range d.endurance {
		v := float64(e)
		sum += v
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	mean := sum / float64(len(d.endurance))
	if math.Abs(mean-1000) > 50 {
		t.Fatalf("endurance mean = %v, want ~1000", mean)
	}
	if min >= max || min >= 1000 || max <= 1000 {
		t.Fatalf("endurance not spread: min=%v max=%v", min, max)
	}
}

func TestConcentratedVsLeveledFailurePatterns(t *testing.T) {
	// §7.2: skewed traffic without wear leveling concentrates failures
	// (few free runs); start-gap spreads them (more, shorter runs).
	const size = 4 * failmap.PageSize
	mk := func(wl WearLeveling) *failmap.Map {
		d := NewDevice(Config{
			Size: size, Endurance: 2000, Variation: 0.1,
			WearLeveling: wl, GapInterval: 1, Seed: 9,
		}, nil)
		// Hot traffic on the first quarter of lines.
		hot := d.Lines() / 4
		i := 0
		for d.FailureRate() < 0.2 {
			d.Write(i%hot, lineData(1))
			i++
			for d.BufferLen() > 0 {
				d.Drain()
			}
		}
		return d.FailMap()
	}
	raw := mk(NoWearLeveling)
	leveled := mk(StartGap)
	if raw.LongestFreeRun() <= leveled.LongestFreeRun() {
		t.Fatalf("concentrated wear should leave longer free runs: raw=%d leveled=%d",
			raw.LongestFreeRun(), leveled.LongestFreeRun())
	}
}

func TestFailMapWithoutClustering(t *testing.T) {
	d := NewDevice(Config{Size: failmap.PageSize, Endurance: 1}, nil)
	d.Write(9, lineData(1))
	m := d.FailMap()
	if !m.LineFailed(9) || m.FailedLines() != 1 {
		t.Fatalf("FailMap: failed=%d", m.FailedLines())
	}
	if d.FailureRate() != 1.0/64 {
		t.Fatalf("FailureRate = %v", d.FailureRate())
	}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{
		{Size: 0},
		{Size: 100},
		{Size: failmap.PageSize, BufferCap: 4, BufferReserve: 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDevice(%+v) did not panic", bad)
				}
			}()
			NewDevice(bad, nil)
		}()
	}
}

func TestStartGapMoveFailuresAreReported(t *testing.T) {
	// Wear out the whole module under start-gap: every line break — whether
	// from a mutator write or from the gap's own relocation copy — must be
	// reported, so the failure rate reaches 100% rather than livelocking.
	d := NewDevice(Config{
		Size: failmap.PageSize, Endurance: 20, WearLeveling: StartGap, GapInterval: 2,
	}, nil)
	buf := make([]byte, failmap.LineSize)
	for i := 0; i < 200000 && d.FailureRate() < 1; i++ {
		d.Write(i%d.Lines(), buf)
		for d.BufferLen() > 0 {
			d.Drain()
		}
	}
	if d.FailureRate() < 1 {
		t.Fatalf("failure rate stuck at %.2f; gap-move breaks not reported", d.FailureRate())
	}
}

// Start-gap and clustering remap the same lines with no inverse between
// them, so a device is one or the other: NewDevice panics on the pair and
// NewDeviceFromImage refuses an image that carries it.
func TestStartGapWithClusteringRefused(t *testing.T) {
	cfg := Config{Size: 8 * failmap.PageSize, ClusterPages: 2, WearLeveling: StartGap, GapInterval: 4}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewDevice built a start-gap device with clustering")
			}
		}()
		NewDevice(cfg, nil)
	}()
	cfg.ClusterPages = 0
	img := NewDevice(cfg, nil).Snapshot()
	img.ClusterPages = 2
	if _, err := NewDeviceFromImage(img, nil, nil); err == nil {
		t.Error("NewDeviceFromImage restored a start-gap image with clustering")
	}
}

// A wear-out of a line the clustering hardware already took — here its
// metadata line 0, written after the OS drained the fake failure that
// reserved it — is absorbed: the storage counts as failed, and nothing is
// parked, surfaced or interrupted.
func TestWearOutOfClusteringMetadataIsAbsorbed(t *testing.T) {
	clock := stats.NewClock(stats.DefaultCosts())
	d := NewDevice(Config{Size: 2 * failmap.PageSize, Endurance: 5, ClusterPages: 2, TrackData: true}, clock)
	interrupts := 0
	d.OnFailure(func() { interrupts++ })
	d.ForceFail(40, nil) // installs metadata lines 0 and 1, surfaces line 2
	for d.BufferLen() > 0 {
		d.Drain()
	}
	before := d.FailMap()
	for i := 0; i < 20; i++ {
		if err := d.Write(0, lineData(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if d.FailedLines() != 2 || !d.wear.isBroken(0) {
		t.Fatalf("failed lines %d, storage 0 broken %v; want metadata line 0's wear-out counted",
			d.FailedLines(), d.wear.isBroken(0))
	}
	if d.BufferLen() != 0 || interrupts != 3 || clock.Count(stats.EvInterrupt) != 3 {
		t.Fatalf("buffer %d, interrupts %d (%d charged); want nothing parked or raised after the first three",
			d.BufferLen(), interrupts, clock.Count(stats.EvInterrupt))
	}
	if after := d.FailMap(); after.FailedLines() != 3 || !reflect.DeepEqual(after, before) {
		t.Fatalf("the failure map moved: %d lines unavailable", after.FailedLines())
	}
}

func TestWearHistogramAccountsEverySlot(t *testing.T) {
	d := NewDevice(Config{Size: failmap.PageSize, Endurance: 50, Variation: 0.2, Seed: 3}, nil)
	buf := make([]byte, failmap.LineSize)
	// Skew the traffic so the histogram has both cold and hot mass.
	for i := 0; i < 4000; i++ {
		d.Write(i%8, buf)
		for d.BufferLen() > 0 {
			d.Drain()
		}
	}
	h := d.WearHistogram(10)
	if len(h) != 10 {
		t.Fatalf("got %d buckets, want 10", len(h))
	}
	slots, failed := 0, 0
	var total uint64
	for i, b := range h {
		if b.Hi <= b.Lo {
			t.Fatalf("bucket %d range [%d,%d) empty", i, b.Lo, b.Hi)
		}
		if i > 0 && b.Lo != h[i-1].Hi {
			t.Fatalf("bucket %d not contiguous: lo=%d prev hi=%d", i, b.Lo, h[i-1].Hi)
		}
		slots += b.Slots
		failed += b.Failed
	}
	if slots != d.Lines() {
		t.Fatalf("histogram covers %d slots, want %d", slots, d.Lines())
	}
	if failed != d.FailedLines() {
		t.Fatalf("histogram failed=%d, device says %d", failed, d.FailedLines())
	}
	if h[0].Slots == 0 || h[0].Slots == d.Lines() {
		t.Fatalf("skewed traffic should split mass, first bucket has %d/%d", h[0].Slots, d.Lines())
	}
	for _, w := range []int{0, 8} {
		total += d.WriteCount(w)
	}
	if d.TotalWrites() < total {
		t.Fatalf("TotalWrites %d below partial sum %d", d.TotalWrites(), total)
	}
}

// Regression for the tombstone/index buffer: hammering one line with
// repeated failures must keep exactly one live entry for it, keep the
// accounting identity live == pushed - invalidated - drained, forward the
// latest parked data, and keep the backing slice bounded (compaction
// amortizes the dead prefix and interior tombstones away).
func TestBufferHammerOneFailingLine(t *testing.T) {
	d := NewDevice(Config{Size: failmap.PageSize, BufferCap: 64, TrackData: true}, nil)
	const hammer = 100000
	for i := 0; i < hammer; i++ {
		d.pushBuffer(FailureRecord{Line: 7, Data: lineData(byte(i))})
		if i%1000 == 0 {
			// Background traffic so line 7's entry is not always newest.
			d.pushBuffer(FailureRecord{Line: 1 + i/1000, Data: lineData(0xEE)})
		}
		if i%5000 == 4999 {
			d.Drain()
		}
	}
	live := 0
	for _, l := range d.BufferedLines() {
		if l == 7 {
			live++
		}
	}
	if live != 1 {
		t.Fatalf("line 7 has %d live entries, want 1", live)
	}
	pushed, invalidated, drained := d.BufferAccounting()
	if got := int(pushed - invalidated - drained); got != d.BufferLen() {
		t.Fatalf("accounting: pushed=%d invalidated=%d drained=%d but live=%d",
			pushed, invalidated, drained, d.BufferLen())
	}
	if int(pushed) != hammer+hammer/1000 {
		t.Fatalf("pushed = %d", pushed)
	}
	got := make([]byte, failmap.LineSize)
	d.Read(7, got)
	if got[0] != byte((hammer-1)&0xFF) {
		t.Fatalf("forwarded data[0] = %#x, want latest write %#x", got[0], byte((hammer-1)&0xFF))
	}
	// The backing slice must stay proportional to live entries, not pushes.
	if cap(d.buffer) > 4*d.cfg.BufferCap+64 {
		t.Fatalf("buffer slice grew to cap %d despite %d live entries", cap(d.buffer), d.BufferLen())
	}
}

// End-to-end repeat failure of one module line: start-gap remapping backs
// the same logical line with fresh storage, which (at endurance 1) fails on
// its next write, so the line re-enters the buffer and the dedup must
// retire its previous entry each time.
func TestStartGapRefailsSameLineWithDedup(t *testing.T) {
	d := NewDevice(Config{
		Size: failmap.PageSize, Endurance: 1,
		WearLeveling: StartGap, GapInterval: 1,
		BufferCap: 1 << 20, TrackData: true,
	}, nil)
	refails := 0
	for i := 0; i < 400; i++ {
		before := d.FailedLines()
		if err := d.Write(0, lineData(byte(i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if d.FailedLines() > before {
			refails++
			// Only the write-triggered failure parks this write's data;
			// later refails can come from gap carries, which park the
			// carried storage contents instead.
			if refails == 1 {
				got := make([]byte, failmap.LineSize)
				d.Read(0, got)
				if got[0] != byte(i) {
					t.Fatalf("first failure forwarded data[0]=%#x want %#x", got[0], byte(i))
				}
			}
		}
		seen := map[int]bool{}
		for _, l := range d.BufferedLines() {
			if seen[l] {
				t.Fatalf("write %d: line %d buffered twice", i, l)
			}
			seen[l] = true
		}
	}
	if refails < 2 {
		t.Fatalf("line 0 failed %d times; start-gap rotation should re-fail it", refails)
	}
	pushed, invalidated, drained := d.BufferAccounting()
	if int(pushed-invalidated-drained) != d.BufferLen() {
		t.Fatalf("accounting off: %d %d %d vs live %d", pushed, invalidated, drained, d.BufferLen())
	}
	if invalidated == 0 {
		t.Fatal("no entries were invalidated; dedup never exercised")
	}
}
