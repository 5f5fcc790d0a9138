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
// writes reach the slots in and wherever snapshots and restores fall.

// lazyPages is the module the lazy-draw tests wear: two and a half chunks
// of slots, so writes land in drawn, undrawn and partly drawn chunks.
const lazyPages = 160

// lazyConfig decodes a corner of the draw: the stream consumed normally, not
// at all (variation 0), or often clamped to 5% of the mean, a limit of 2
// that a single write draws nothing for; start-gap, whose
// spare slot is the last and is written by the first gap move; clustering;
// and, on every corner, correction entries or none. The lease is set, since
// the default, a tenth of an endurance of 8, is zero.
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
	if shape/5%2 == 1 {
		cfg.ECCEntries, cfg.ECCLease = 2, 3
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
			if len(img.EnduranceOf) != len(d.endurance) {
				t.Fatalf("op %d: image carries %d limits, device drew %d", op, len(img.EnduranceOf), len(d.endurance))
			}
			if code == lazyRestoreCoded {
				img = recode(t, img)
			}
			restored, err := NewDeviceFromImage(img, nil, nil)
			if err != nil {
				t.Fatalf("op %d: restore: %v", op, err)
			}
			if len(restored.endurance) != len(img.EnduranceOf) {
				t.Fatalf("op %d: restoring %d limits left %d drawn", op, len(img.EnduranceOf), len(restored.endurance))
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

// matchEager draws the rest of d's table and fails the test where a slot's
// limit is not sampleEndurance's value for that slot over one stream of the
// seed, raised by the leases its spent correction entries granted, or where
// a slot is broken and its count short of its limit, or whole and its count
// at or past it: a count that drew no limit still failed exactly the slots
// the eager table says it did.
func matchEager(t *testing.T, d *Device, cfg Config) {
	t.Helper()
	d.limit(len(d.writes) - 1)
	if len(d.endurance) != len(d.writes) {
		t.Fatalf("drawing every slot left %d of %d drawn", len(d.endurance), len(d.writes))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for s, got := range d.endurance {
		want := sampleEndurance(cfg.Endurance, cfg.Variation, rng)
		if d.eccLeft != nil {
			want += uint64(cfg.ECCEntries-int(d.eccLeft[s])) * cfg.ECCLease
		}
		if got != want {
			t.Fatalf("slot %d: limit %d, eager draw %d (seed %d, variation %v, %d writes)",
				s, got, want, cfg.Seed, cfg.Variation, d.writes[s])
		}
		if d.broken[s] != (d.writes[s] >= got) {
			t.Fatalf("slot %d: broken %v after %d writes, limit %d (seed %d, variation %v)",
				s, d.broken[s], d.writes[s], got, cfg.Seed, cfg.Variation)
		}
	}
}

// lazySeeds is the corpus: every corner, each with writes that spend
// leases low in the module, restores (in memory and through the encoding)
// before and after them, writes to undrawn chunks, high then low, and a
// restore from an image no write has drawn into.
func lazySeeds() [][]byte {
	w := func(line, k int) []byte { return []byte{lazyWrite, byte(line >> 8), byte(line), byte(k - 1)} }
	var seeds [][]byte
	for shape := range 10 {
		in := []byte{byte(shape), byte(3 + shape)}
		in = append(in, lazyRestoreCoded) // the empty prefix
		in = append(in, w(5, 16)...)
		in = append(in, w(6, 16)...)
		in = append(in, w(5, 16)...) // past the lease on the correction corners
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
		if d := runLazy(t, in); d.cfg.ECCEntries > 0 && d.CorrectedBits() == 0 {
			t.Fatalf("corner %d spent no correction entry", in[0])
		}
	}

	// A finite device restored from an image that drew nothing stays
	// finite: slot 0 fails at the eager draw's limit.
	cfg := lazyConfig(0, 11)
	img := recode(t, NewDevice(cfg, nil).Snapshot())
	if img.EnduranceOf != nil {
		t.Fatalf("a fresh device's image carries %d limits", len(img.EnduranceOf))
	}
	d, err := NewDeviceFromImage(img, nil, nil)
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

	// An image that carries every slot's limit, as all images did before
	// the draw was lazy, restores to the device it was taken from.
	d = NewDevice(lazyConfig(5, 12), nil)
	driveWrites(d, 12, 3000)
	d.limit(len(d.writes) - 1)
	full := d.Snapshot()
	r, err := NewDeviceFromImage(recode(t, full), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot(); !reflect.DeepEqual(got, full) {
		t.Fatal("a full-table image does not restore to the device it was taken from")
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
// draws a chunk, and however the draws interleave with the images, every
// image's prefix and the final table are the eager draw's.
func TestConcurrentDeviceHammerLazyEndurance(t *testing.T) {
	cfg := lazyConfig(5, 21) // correction entries: leases land while others draw
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
	var images []*DeviceImage
	snapped := make(chan struct{})
	go func() {
		defer close(snapped)
		for range 20 {
			img := d.Snapshot()
			if _, err := NewDeviceFromImage(img, nil, nil); err != nil {
				t.Error(err)
			}
			images = append(images, img)
		}
	}()
	wg.Wait()
	<-snapped
	for _, img := range images {
		eager := &DeviceImage{Size: img.Size, WearLeveling: img.WearLeveling,
			Endurance: img.Endurance, Variation: img.Variation, Seed: img.Seed}
		eagerEndurance(eager)
		for s, got := range img.EnduranceOf {
			if want := eager.EnduranceOf[s] + uint64(cfg.ECCEntries-int(img.ECCLeft[s]))*cfg.ECCLease; got != want {
				t.Fatalf("an image taken mid-hammer holds %d for slot %d, eager draw %d", got, s, want)
			}
		}
	}
	if d.CorrectedBits() == 0 {
		t.Fatal("the hammer spent no correction entry")
	}
	matchEager(t, d, cfg)
}

// tortureScale is the module a torture campaign boots (chaos's pool and
// wear settings).
func tortureScale() Config {
	return Config{Size: 16 << 20, Endurance: 2048, Variation: 0.25, TrackData: true, Seed: 42}
}

// TestEnduranceDrawnOnDemand: a fresh torture-scale module holds no limit
// until a write consults one. A write anywhere consults none while its
// slot's count is short of the least limit sampling gives (102 writes
// here), and the write that reaches it draws one chunk. The image carries
// what the module drew and restoring draws nothing more.
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
	img := d.Snapshot()
	if len(img.EnduranceOf) != len(d.endurance) {
		t.Fatalf("the image carries %d limits, the device drew %d", len(img.EnduranceOf), len(d.endurance))
	}
	r, err := NewDeviceFromImage(img, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.endurance) != len(img.EnduranceOf) {
		t.Fatalf("restoring %d limits left %d drawn", len(img.EnduranceOf), len(r.endurance))
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
