package pcm

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"wearmem/internal/failmap"
)

// What decoding and restoring an image may allocate: fuzzAllocPerByte per
// byte of input, because every slice the image holds costs at least one
// byte of input per element and the widest thing a restore builds from one
// element (a re-parked orphan: its torn line, its buffer entry, its index
// entry) is a few hundred bytes; plus gobReadAhead once, because gob sizes
// one buffer from a count before the bytes behind it arrive — a message, or
// a slice's elements — and caps that read-ahead at 10 MB (internal/saferio).
// A restore that sizes anything from a field instead of from the data it
// validated against that field breaks the bound by orders of magnitude.
const (
	fuzzAllocPerByte = 256
	gobReadAhead     = 16 << 20
)

// FuzzDecodeImage: bytes → DecodeImage → NewDeviceFromImage returns an
// error or a device, never panics, and allocates no more than the input's
// size warrants. The corpus is the encoding of small devices of every
// geometry: fresh, worn with failures pending in the buffer (orphans),
// start-gap and clustered; of endurance tables of every length a restore
// takes — none on a finite device, a prefix of a module longer than one
// chunk, and every slot, as images carried before the draw was lazy — and
// of the images a restore refuses: a start-gap image that claims
// clustering regions too, a table on a device of infinite endurance, and a
// table longer than the module.
func FuzzDecodeImage(f *testing.F) {
	const size = 4 * failmap.PageSize
	long := Config{Size: 80 * failmap.PageSize, Endurance: 40, Variation: 0.25, TrackData: true, Seed: 6}
	for _, tc := range []struct {
		cfg    Config
		writes int
		lines  int                // writes land in the first lines lines; 0 means anywhere
		edit   func(*DeviceImage) // applied to the image after the fact
	}{
		{Config{Size: size, TrackData: true, Seed: 1}, 0, 0, nil},
		{Config{Size: size, Endurance: 3, Variation: 0.3, ECCEntries: 2, TrackData: true, Seed: 2,
			BufferCap: 64, BufferReserve: 4}, 300, 0, nil},
		{Config{Size: size, Endurance: 40, WearLeveling: StartGap, GapInterval: 3, TrackData: true, Seed: 3}, 200, 0, nil},
		{Config{Size: size, Endurance: 3, ClusterPages: 2, TrackData: true, Seed: 4, BufferCap: 64, BufferReserve: 4}, 200, 0, nil},
		{Config{Size: size, Endurance: 40, WearLeveling: StartGap, GapInterval: 3, TrackData: true, Seed: 5}, 200, 0,
			func(img *DeviceImage) { img.ClusterPages = 2 }},
		{long, 0, 0, nil},
		{long, 200, 1000, nil},
		{long, 200, 0, nil},
		{Config{Size: size, Endurance: 40, TrackData: true, Seed: 7}, 50, 0,
			func(img *DeviceImage) { img.Endurance = 0 }},
		{Config{Size: size, Endurance: 40, TrackData: true, Seed: 8}, 50, 0,
			func(img *DeviceImage) { img.EnduranceOf = append(img.EnduranceOf, 40) }},
	} {
		d := NewDevice(tc.cfg, nil)
		if tc.lines == 0 {
			driveWrites(d, tc.cfg.Seed, tc.writes)
		} else {
			rng := rand.New(rand.NewSource(tc.cfg.Seed))
			for range tc.writes {
				_ = d.Write(rng.Intn(tc.lines), make([]byte, failmap.LineSize))
			}
		}
		img := d.Snapshot()
		if tc.edit != nil {
			tc.edit(img)
		}
		var enc bytes.Buffer
		if err := EncodeImage(&enc, img); err != nil {
			f.Fatal(err)
		}
		f.Add(enc.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		img, err := DecodeImage(bytes.NewReader(data))
		if err == nil {
			var d *Device
			if d, err = NewDeviceFromImage(img, nil, nil); err == nil && d == nil {
				t.Fatal("no device and no error")
			}
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(fuzzAllocPerByte*len(data)+gobReadAhead); got > limit {
			t.Fatalf("a %d-byte image allocated %d bytes (limit %d); restore err %v", len(data), got, limit, err)
		}
	})
}
