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
// which fails the decode, so on a restore the same term holds what a device
// sizes from its module and not from the input: the clustering array's
// region directory, 0.5 MB for a module of maxImageSize clustered a page a
// region, which the corpus restores from 2.8 KB. A restore that sizes
// anything else from a field instead of from the data it validated against
// that field breaks the bound by orders of magnitude.
const (
	fuzzAllocPerByte = 256
	gobReadAhead     = 16 << 20
)

// FuzzDecodeImage: bytes → DecodeImage → NewDeviceFromImage returns an
// error or a device, never panics, and allocates no more than the input's
// size warrants. The corpus is the encoding of small devices of every
// geometry: fresh, worn with failures pending in the buffer (orphans),
// start-gap and clustered, and the largest module a restore takes, fresh
// and clustered a page a region; worn on either side of the first wear
// chunk's edge, slots 4095 and 4096, and on a start-gap module of 64 pages
// whose spare slot 4096 is a chunk of one slot; of a module longer than one
// chunk, fresh, worn low and worn anywhere; of the images a restore
// refuses: a start-gap image that claims clustering regions too, wear
// counters a chunk short, and a broken chunk of one slot; and of a worn
// module and a worn start-gap one as images were encoded while they
// carried correction entries and the drawn endurance limits.
func FuzzDecodeImage(f *testing.F) {
	const size = 4 * failmap.PageSize
	long := Config{Size: 80 * failmap.PageSize, Endurance: 40, Variation: 0.25, TrackData: true, Seed: 6}
	for _, tc := range []struct {
		cfg    Config
		writes int
		lines  int                // writes land in the first lines lines; 0 means anywhere
		on     []int              // or, when set, on these lines in turn
		edit   func(*DeviceImage) // applied to the image after the fact
	}{
		{Config{Size: size, TrackData: true, Seed: 1}, 0, 0, nil, nil},
		{Config{Size: size, Endurance: 3, Variation: 0.3, TrackData: true, Seed: 2,
			BufferCap: 64, BufferReserve: 4}, 300, 0, nil, nil},
		{Config{Size: size, Endurance: 40, WearLeveling: StartGap, GapInterval: 3, TrackData: true, Seed: 3}, 200, 0, nil, nil},
		{Config{Size: size, Endurance: 3, ClusterPages: 2, TrackData: true, Seed: 4, BufferCap: 64, BufferReserve: 4}, 200, 0, nil, nil},
		{Config{Size: size, Endurance: 40, WearLeveling: StartGap, GapInterval: 3, TrackData: true, Seed: 5}, 200, 0, nil,
			func(img *DeviceImage) { img.ClusterPages = 2 }},
		{long, 0, 0, nil, nil},
		{long, 200, 1000, nil, nil},
		{long, 200, 0, nil, nil},
		{long, 200, 0, nil, func(img *DeviceImage) { img.Writes = img.Writes[:1] }},
		{long, 200, 0, nil, func(img *DeviceImage) { img.Broken[1] = []bool{true} }},
		{long, 100, 0, []int{4095, 4096}, nil},
		{Config{Size: 64 * failmap.PageSize, Endurance: 40, Variation: 0.25, WearLeveling: StartGap, GapInterval: 1,
			TrackData: true, Seed: 10}, 100, 0, []int{4095}, nil},
		{Config{Size: maxImageSize, ClusterPages: 1, Seed: 9}, 0, 0, nil, nil},
	} {
		d := NewDevice(tc.cfg, nil)
		switch {
		case tc.on != nil:
			for i := range tc.writes {
				_ = d.Write(tc.on[i%len(tc.on)], make([]byte, failmap.LineSize))
			}
		case tc.lines == 0:
			driveWrites(d, tc.cfg.Seed, tc.writes)
		default:
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
	for _, cfg := range []Config{
		{Size: size, Endurance: 10, Variation: 0.3, TrackData: true, Seed: 7},
		{Size: size, Endurance: 10, Variation: 0.3, WearLeveling: StartGap, GapInterval: 3, TrackData: true, Seed: 8},
	} {
		d := NewDevice(cfg, nil)
		driveWrites(d, cfg.Seed, 300)
		f.Add(encodeWithFields(f, d.Snapshot(), droppedWearFields(d)))
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
