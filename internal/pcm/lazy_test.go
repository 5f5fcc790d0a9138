package pcm

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"wearmem/internal/failmap"
)

// A device draws its endurance limits in slot order, as far as the first
// write that consults one needs. These tests hold the drawn table to the one
// a device that drew every slot at construction would hold, whatever order
// writes reach the slots in and wherever snapshots and restores fall; an
// image carries no limit and a restore draws none.

// lazyPages is the module the lazy-draw tests wear: two and a half chunks
// of slots, so writes land in drawn, undrawn and partly drawn chunks.
const lazyPages = 160

// lazyConfig decodes a corner of the draw: the stream consumed normally, not
// at all (variation 0), or often clamped to 5% of the mean, a limit of 2
// that a single write draws nothing for; start-gap, whose spare slot is the
// last and is written by the first gap move; and clustering.
func lazyConfig(shape byte, seed int64) Config {
	cfg := Config{Size: lazyPages * failmap.PageSize, Endurance: 8, Variation: 0.25,
		BufferCap: 64, BufferReserve: 4, Seed: seed}
	switch shape % 5 {
	case 1:
		cfg.Variation = 0
	case 2:
		cfg.Endurance, cfg.Variation = 40, 3 // 1+3N < 0.05 for N below −0.32: over a third of the slots
	case 3:
		cfg.WearLeveling, cfg.GapInterval = StartGap, 5
	case 4:
		cfg.ClusterPages = 2
	}
	return cfg
}

// The lazy-draw operations: the first byte of each picks one.
const (
	lazyWrite        = iota // line, count 1-16: Write count times
	lazyWriteRepeat         // line, n 1-40: WriteRepeat
	lazyRestore             // Snapshot → NewDeviceFromImage
	lazyRestoreCoded        // Snapshot → EncodeImage → DecodeImage → NewDeviceFromImage
	numLazyOps
)

// runLazy decodes a configuration and up to 64 operations from in, applies
// them with the failure buffer drained after each, checks the device's
// table against the eager one and returns the device.
func runLazy(t *testing.T, in []byte) *Device {
	t.Helper()
	src := &opStream{in: in}
	cfg := lazyConfig(src.next(), int64(src.next()))
	d := NewDevice(cfg, nil)
	buf := make([]byte, failmap.LineSize)
	line := func() int { return (int(src.next())<<8 | int(src.next())) % d.Lines() }
	for op := 0; op < 64 && len(src.in) > 0; op++ {
		switch code := src.next() % numLazyOps; code {
		case lazyWrite:
			l, k := line(), 1+int(src.next()%16)
			for range k {
				_ = d.Write(l, buf)
				drainAll(d)
			}
		case lazyWriteRepeat:
			d.WriteRepeat(line(), buf, 1+int(src.next()%40))
		case lazyRestore, lazyRestoreCoded:
			img := d.Snapshot()
			if code == lazyRestoreCoded {
				img = recode(t, img)
			}
			restored, err := NewDeviceFromImage(img, nil, nil)
			if err != nil {
				t.Fatalf("op %d: restore: %v", op, err)
			}
			if n := len(restored.endurance); n != 0 {
				t.Fatalf("op %d: restoring drew %d limits", op, n)
			}
			d = restored
			drainAll(d)
		}
	}
	matchEager(t, d, cfg)
	return d
}

// recode returns img as it comes back from its gob encoding.
func recode(t *testing.T, img *DeviceImage) *DeviceImage {
	t.Helper()
	var enc bytes.Buffer
	if err := EncodeImage(&enc, img); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeImage(&enc)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// matchEager draws the rest of d's table and fails the test where that
// changes d's image (an image carries no limit), where a slot's limit is not
// sampleEndurance's value for that slot over one stream of the seed, or
// where a slot is broken and its count short of its limit, or whole and its
// count at or past it: a count that drew no limit still failed exactly the
// slots the eager table says it did.
func matchEager(t *testing.T, d *Device, cfg Config) {
	t.Helper()
	img := d.Snapshot()
	d.limit(d.wear.slots - 1)
	if len(d.endurance) != d.wear.slots {
		t.Fatalf("drawing every slot left %d of %d drawn", len(d.endurance), d.wear.slots)
	}
	if !reflect.DeepEqual(img, d.Snapshot()) {
		t.Fatal("drawing every limit changed the device's image")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for s, got := range d.endurance {
		if want := sampleEndurance(cfg.Endurance, cfg.Variation, rng); got != want {
			t.Fatalf("slot %d: limit %d, eager draw %d (seed %d, variation %v, %d writes)",
				s, got, want, cfg.Seed, cfg.Variation, d.wear.count(s))
		}
		if d.wear.isBroken(s) != (d.wear.count(s) >= got) {
			t.Fatalf("slot %d: broken %v after %d writes, limit %d (seed %d, variation %v)",
				s, d.wear.isBroken(s), d.wear.count(s), got, cfg.Seed, cfg.Variation)
		}
	}
}

// lazySeeds is the corpus: every corner, each with writes that wear lines
// low in the module out, restores (in memory and through the encoding)
// before and after them, writes to undrawn chunks, high then low, and a
// restore from an image no write has drawn into. Shapes 5 to 9 decode to
// the corners 0 to 4 at other seeds.
func lazySeeds() [][]byte {
	w := func(line, k int) []byte { return []byte{lazyWrite, byte(line >> 8), byte(line), byte(k - 1)} }
	var seeds [][]byte
	for shape := range 10 {
		in := []byte{byte(shape), byte(3 + shape)}
		in = append(in, lazyRestoreCoded) // nothing drawn yet
		in = append(in, w(5, 16)...)
		in = append(in, w(6, 16)...)
		in = append(in, w(5, 16)...)
		in = append(in, lazyRestore)
		in = append(in, w(9000, 3)...) // the third chunk, skipping the second
		in = append(in, lazyRestoreCoded)
		in = append(in, w(4100, 12)...)
		in = append(in, lazyWriteRepeat, 0x10, 0x00, 30)
		in = append(in, w(700, 16)...)
		in = append(in, lazyRestore)
		in = append(in, w(10239, 2)...) // the last line, and under start-gap the spare slot behind it
		seeds = append(seeds, in)
	}
	return seeds
}

func TestLazyEnduranceMatchesEager(t *testing.T) {
	for _, in := range lazySeeds() {
		runLazy(t, in)
	}

	// A finite device restored from an image that drew nothing stays
	// finite: slot 0 fails at the eager draw's limit.
	cfg := lazyConfig(0, 11)
	d, err := NewDeviceFromImage(recode(t, NewDevice(cfg, nil).Snapshot()), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	limit := sampleEndurance(cfg.Endurance, cfg.Variation, rand.New(rand.NewSource(cfg.Seed)))
	buf := make([]byte, failmap.LineSize)
	for w := uint64(1); w <= limit; w++ {
		if err := d.Write(0, buf); err != nil {
			t.Fatal(err)
		}
		if failed := d.FailedLines() != 0; failed != (w == limit) {
			t.Fatalf("write %d of %d to slot 0: %d lines failed", w, limit, d.FailedLines())
		}
	}

	// A device that drew every limit restores, drawing none, to the device
	// it was taken from.
	d = NewDevice(lazyConfig(0, 12), nil)
	driveWrites(d, 12, 3000)
	d.limit(d.wear.slots - 1)
	img := d.Snapshot()
	r, err := NewDeviceFromImage(recode(t, img), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.endurance) != 0 || !reflect.DeepEqual(r.Snapshot(), img) {
		t.Fatal("a device that drew every limit does not restore to the device it was taken from")
	}
}

// TestWriteFailsAtLeastLimit wears, in each chunk of a module whose limits
// are often clamped to the least one sampling gives (5 of a mean 100), the
// first clamped slot until it fails, the chunk still undrawn when the wear
// starts, and restores the module from its image halfway: every such slot
// fails on its fifth write, the one that first consults a limit.
func TestWriteFailsAtLeastLimit(t *testing.T) {
	cfg := Config{Size: 8 * enduranceChunk * failmap.LineSize, Endurance: 100, Variation: 3, Seed: 5}
	const floor = 5
	d := NewDevice(cfg, nil)
	rng := rand.New(rand.NewSource(cfg.Seed))
	eager := make([]uint64, d.Lines())
	for s := range eager {
		eager[s] = sampleEndurance(cfg.Endurance, cfg.Variation, rng)
	}
	buf := make([]byte, failmap.LineSize)
	for c := 0; c < d.Lines()/enduranceChunk; c++ {
		if c == 4 {
			r, err := NewDeviceFromImage(recode(t, d.Snapshot()), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			d = r
		}
		s := c * enduranceChunk
		for eager[s] != floor {
			s++
		}
		if len(d.endurance) > s {
			t.Fatalf("chunk %d drawn before its first write", c)
		}
		for w := uint64(1); w <= floor; w++ {
			before := d.FailedLines()
			if err := d.Write(s, buf); err != nil {
				t.Fatal(err)
			}
			drainAll(d)
			if failed := d.FailedLines() > before; failed != (w == floor) {
				t.Fatalf("write %d to slot %d, limit %d: failed %v", w, s, floor, failed)
			}
		}
	}
}

// FuzzLazyEnduranceMatchesEager: any corner, any order of writes, restores
// anywhere, in memory or encoded; every slot's limit is the eager draw's.
func FuzzLazyEnduranceMatchesEager(f *testing.F) {
	for _, in := range lazySeeds() {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) { runLazy(t, in) })
}

// TestConcurrentDeviceHammerLazyEndurance shares an equipped device between
// four writers, each reaching the chunks in its own order, and a goroutine
// that snapshots and restores it (run it under -race): whichever write
// draws a chunk, and however the draws interleave with the images, the
// final table is the eager draw's, and so is every restored device's, whose
// wear agrees with it.
func TestConcurrentDeviceHammerLazyEndurance(t *testing.T) {
	cfg := lazyConfig(2, 21) // a third of the limits at the floor: writes wear lines out early
	d := NewDevice(cfg, nil)
	d.SetConcurrent()
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, failmap.LineSize)
			for i := range 400 {
				line := (w*3001 + i%40*977) % d.Lines() // forty lines a writer, ten writes each
				_ = d.Write(line, buf)                  // a write refused at the watermark is dropped
				drainAll(d)
			}
		}()
	}
	var restored []*Device
	snapped := make(chan struct{})
	go func() {
		defer close(snapped)
		for range 20 {
			r, err := NewDeviceFromImage(d.Snapshot(), nil, nil)
			if err != nil {
				t.Error(err)
				return
			}
			restored = append(restored, r)
		}
	}()
	wg.Wait()
	<-snapped
	if d.FailedLines() == 0 {
		t.Fatal("the hammer wore no line out")
	}
	matchEager(t, d, cfg)
	for _, r := range restored {
		if len(r.endurance) != 0 {
			t.Fatalf("restoring an image taken mid-hammer drew %d limits", len(r.endurance))
		}
		matchEager(t, r, cfg)
	}
}

// tortureScale is the module a torture campaign boots (chaos's pool and
// wear settings).
func tortureScale() Config {
	return Config{Size: 16 << 20, Endurance: 2048, Variation: 0.25, TrackData: true, Seed: 42}
}

// TestEnduranceDrawnOnDemand: a fresh torture-scale module holds no limit
// until a write consults one. A write anywhere consults none while its
// slot's count is short of the least limit sampling gives (102 writes
// here), and the write that reaches it draws one chunk. Restoring the
// module's image draws nothing.
func TestEnduranceDrawnOnDemand(t *testing.T) {
	cfg := tortureScale()
	d := NewDevice(cfg, nil)
	if n := len(d.endurance); n != 0 {
		t.Fatalf("a fresh module drew %d limits", n)
	}
	buf := make([]byte, failmap.LineSize)
	const floor = 102 // 5% of 2048
	for _, line := range []int{0, d.Lines() / 2, d.Lines() - 1} {
		for range floor - 1 {
			if err := d.Write(line, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := len(d.endurance); n != 0 {
		t.Fatalf("%d writes to each of three lines drew %d limits", floor-1, n)
	}
	if err := d.Write(0, buf); err != nil {
		t.Fatal(err)
	}
	if n := len(d.endurance); n != enduranceChunk {
		t.Fatalf("write %d to slot 0 drew %d limits, want %d", floor, n, enduranceChunk)
	}
	r, err := NewDeviceFromImage(d.Snapshot(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.endurance); n != 0 {
		t.Fatalf("restoring drew %d limits", n)
	}
}

// BenchmarkNewDevice is what booting a torture campaign's module costs.
func BenchmarkNewDevice(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		NewDevice(tortureScale(), nil)
	}
}

// BenchmarkSnapshotRestore is a power cut and the restart after it on a
// torture-scale module whose writes stayed in its first 4096 lines, as a
// campaign's heap does: Snapshot, then NewDeviceFromImage.
func BenchmarkSnapshotRestore(b *testing.B) {
	d := NewDevice(tortureScale(), nil)
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, failmap.LineSize)
	for range 2000 {
		rng.Read(buf)
		if err := d.Write(rng.Intn(4096), buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := NewDeviceFromImage(d.Snapshot(), nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
