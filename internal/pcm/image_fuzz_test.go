package pcm

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
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
// Gob reads ahead past the input only on a count the input does not back,
// which fails the decode, so on a restore the same term holds the dense wear
// state a device sizes from its module: maxImageSize caps it at about
// 9.5 MB, and the corpus restores a module of that size from a few hundred
// bytes. A restore that sizes anything else from a field instead of from the
// data it validated against that field breaks the bound by orders of
// magnitude.
const (
	fuzzAllocPerByte = 256
	gobReadAhead     = 16 << 20
)

// FuzzDecodeImage: bytes → DecodeImage → NewDeviceFromImage returns an
// error or a device, never panics, and allocates no more than the input's
// size warrants. The corpus is the encoding of small devices of every
// geometry: fresh, worn with failures pending in the buffer (orphans),
// start-gap and clustered, and the largest module a restore takes, fresh
// and clustered a page a region; of endurance tables of every length a
// restore takes — none on a finite device, a prefix of a module longer than
// one chunk, and every slot, as images carried before the draw was lazy —
// and of the images a restore refuses: a start-gap image that claims
// clustering regions too, a table on a device of infinite endurance, a
// table longer than the module, wear counters a chunk short, and a broken
// chunk of one slot.
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
		{long, 200, 0, func(img *DeviceImage) { img.Writes = img.Writes[:1] }},
		{long, 200, 0, func(img *DeviceImage) { img.Broken[1] = []bool{true} }},
		{Config{Size: maxImageSize, ClusterPages: 1, Seed: 9}, 0, 0, nil},
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

// TestDecodeImageCorpusRejections holds each committed FuzzDecodeImage input
// to the rejection it was committed for: the two images whose clustering
// regions do not tile the module decode and are refused on restore (where
// an int is 32 bits wide, the overflowing one is refused by the decoder),
// and the two gob inputs whose counts run past the input fail to decode.
func TestDecodeImageCorpusRejections(t *testing.T) {
	overflow := "not a whole number of 4503599627370496-page clustering regions"
	if strconv.IntSize == 32 {
		overflow = `value for "ClusterPages" out of range`
	}
	for name, want := range map[string]string{
		"cluster-pages-not-a-divisor":      "not a whole number of 3-page clustering regions",
		"cluster-pages-overflow":           overflow,
		"gob-message-count-past-the-input": "unexpected EOF",
		"gob-slice-count-past-the-input":   "gob: bad data",
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeImage", name))
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		img, err := DecodeImage(strings.NewReader(data))
		if err == nil {
			_, err = NewDeviceFromImage(img, nil, nil)
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one saying %q", name, err, want)
		}
	}
}
