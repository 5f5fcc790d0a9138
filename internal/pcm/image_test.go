package pcm

import (
	"bytes"
	"encoding/gob"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/stats"
)

func imageTestDevice(cfg Config) (*Device, *stats.Clock) {
	clock := stats.NewClock(stats.DefaultCosts())
	return NewDevice(cfg, clock), clock
}

// driveWrites applies a deterministic write sequence to the device,
// ignoring stall errors (the caller controls whether failures can occur).
func driveWrites(d *Device, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, failmap.LineSize)
	for i := 0; i < n; i++ {
		line := rng.Intn(d.Lines())
		rng.Read(buf)
		_ = d.Write(line, buf)
	}
}

// TestImageRoundTripQuiescent: a snapshot of a quiescent device restores to
// a state whose own snapshot is identical — nothing durable is lost or
// invented by the round trip, including through the gob encoding.
func TestImageRoundTripQuiescent(t *testing.T) {
	for _, cfg := range []Config{
		{Size: 1 << 20, TrackData: true, Seed: 42},
		{Size: 1 << 20, Endurance: 4096, Variation: 0.25, TrackData: true, Seed: 42},
		{Size: 1 << 20, Endurance: 4096, Variation: 0.25, WearLeveling: StartGap, TrackData: true, Seed: 42},
		{Size: 1 << 20, Endurance: 4096, Variation: 0.25, ClusterPages: 8, TrackData: true, Seed: 42},
	} {
		d, clock := imageTestDevice(cfg)
		driveWrites(d, 42, 4000)
		for { // retire anything the writes wore out: quiescent means empty buffer
			if _, ok := d.Drain(); !ok {
				break
			}
		}
		img := d.Snapshot()
		if len(img.Orphans) != 0 {
			t.Fatalf("quiescent snapshot has %d orphans", len(img.Orphans))
		}
		var enc bytes.Buffer
		if err := EncodeImage(&enc, img); err != nil {
			t.Fatalf("encode: %v", err)
		}
		dec, err := DecodeImage(&enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		d2, err := NewDeviceFromImage(dec, clock, nil)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		if !reflect.DeepEqual(img, d2.Snapshot()) {
			t.Fatalf("cfg %+v: restored snapshot differs from original", cfg)
		}
	}
}

// TestImageDecodeIgnoresClusterCache: images encoded while DeviceImage
// still carried the redirection-map cache size (now a constant of the
// hardware model) decode, and restore to the device they were taken from.
func TestImageDecodeIgnoresClusterCache(t *testing.T) {
	d, clock := imageTestDevice(Config{Size: 1 << 20, ClusterPages: 8, TrackData: true, Seed: 42})
	driveWrites(d, 42, 4000)
	img := d.Snapshot()
	restoresFromOldFields(t, img, clock, map[string]any{"ClusterCache": 4})
}

// TestImageDecodeIgnoresDroppedWearFields: images encoded while DeviceImage
// still carried correction-entry state and the drawn endurance limits
// decode, and restore to the device they were taken from, which draws its
// limits from the seed.
func TestImageDecodeIgnoresDroppedWearFields(t *testing.T) {
	cfg := Config{Size: 1 << 20, Endurance: 64, Variation: 0.25, TrackData: true, Seed: 42}
	d, clock := imageTestDevice(cfg)
	driveWrites(d, 42, 4000)
	drainAll(d)
	img := d.Snapshot()
	r := restoresFromOldFields(t, img, clock, droppedWearFields(d))
	driveWrites(d, 43, 4000)
	driveWrites(r, 43, 4000)
	if !reflect.DeepEqual(d.Snapshot(), r.Snapshot()) {
		t.Fatal("a device restored from an image with the dropped fields wore differently")
	}
}

// droppedWearFields are the wear fields DeviceImage once carried, with
// values an image of d could have held: two correction entries a slot, one
// of them spent on every slot, a lease of a tenth of the endurance, and
// every limit d drew raised by that lease.
func droppedWearFields(d *Device) map[string]any {
	limits := make([]uint64, len(d.endurance))
	for s, e := range d.endurance {
		limits[s] = e + d.cfg.Endurance/10
	}
	left := make([]uint8, d.wear.slots)
	for s := range left {
		left[s] = 1
	}
	return map[string]any{"ECCEntries": 2, "ECCLease": d.cfg.Endurance / 10, "EnduranceOf": limits,
		"ECCLeft": left, "CorrectedBits": uint64(d.wear.slots)}
}

// encodeWithFields is img's gob encoding as a DeviceImage that also had the
// extra fields, set to their values, wrote it.
func encodeWithFields(tb testing.TB, img *DeviceImage, extra map[string]any) []byte {
	tb.Helper()
	cur := reflect.ValueOf(*img)
	fields := reflect.VisibleFields(cur.Type())
	names := slices.Sorted(maps.Keys(extra))
	for _, name := range names {
		fields = append(fields, reflect.StructField{Name: name, Type: reflect.TypeOf(extra[name])})
	}
	old := reflect.New(reflect.StructOf(fields)).Elem()
	for i := 0; i < cur.NumField(); i++ {
		old.Field(i).Set(cur.Field(i))
	}
	for _, name := range names {
		old.FieldByName(name).Set(reflect.ValueOf(extra[name]))
	}
	var enc bytes.Buffer
	if err := gob.NewEncoder(&enc).Encode(old.Interface()); err != nil {
		tb.Fatalf("encode: %v", err)
	}
	return enc.Bytes()
}

// restoresFromOldFields encodes img with the extra fields, decodes and
// restores it, and fails the test unless the restored device's image is
// img; it returns the device.
func restoresFromOldFields(t *testing.T, img *DeviceImage, clock *stats.Clock, extra map[string]any) *Device {
	t.Helper()
	dec, err := DecodeImage(bytes.NewReader(encodeWithFields(t, img, extra)))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	d, err := NewDeviceFromImage(dec, clock, nil)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !reflect.DeepEqual(img, d.Snapshot()) {
		t.Fatal("an image with the old fields restored to a different device")
	}
	return d
}

// TestImageDifferential is the restart-transparency check: driving S1 then
// S2 on one device must equal driving S1, power-cycling through a
// quiescent snapshot, and driving S2 on the restored device — byte for
// byte, wear counter for wear counter.
func TestImageDifferential(t *testing.T) {
	for _, cfg := range []Config{
		{Size: 1 << 20, Endurance: 8192, Variation: 0.25, WearLeveling: StartGap, TrackData: true, Seed: 42},
		{Size: 1 << 20, Endurance: 8192, Variation: 0.25, ClusterPages: 8, TrackData: true, Seed: 42},
	} {
		a, _ := imageTestDevice(cfg)
		driveWrites(a, 42, 3000)
		driveWrites(a, 43, 3000)

		b, clock := imageTestDevice(cfg)
		driveWrites(b, 42, 3000)
		b2, err := NewDeviceFromImage(b.Snapshot(), clock, nil)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		driveWrites(b2, 43, 3000)

		if !reflect.DeepEqual(a.Snapshot(), b2.Snapshot()) {
			t.Fatalf("cfg %+v: restart in the middle of the write sequence changed the final device state", cfg)
		}
	}
}

// TestImageOrphans: buffer entries pending at the cut come back as orphans
// with their parked data torn (zeroed), still drainable and still failed.
func TestImageOrphans(t *testing.T) {
	d, clock := imageTestDevice(Config{Size: 1 << 20, TrackData: true, Seed: 1})
	pattern := bytes.Repeat([]byte{0xAB}, failmap.LineSize)
	for _, line := range []int{3, 97, 4000} {
		if err := d.Write(line, pattern); err != nil {
			t.Fatalf("write: %v", err)
		}
		if !d.ForceFail(line, pattern) {
			t.Fatalf("force-fail line %d", line)
		}
	}
	img := d.Snapshot()
	if len(img.Orphans) != 3 {
		t.Fatalf("got %d orphans, want 3", len(img.Orphans))
	}
	d2, err := NewDeviceFromImage(img, clock, nil)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if d2.BufferLen() != 3 {
		t.Fatalf("restored buffer holds %d entries, want 3", d2.BufferLen())
	}
	buf := make([]byte, failmap.LineSize)
	d2.Read(97, buf)
	if !bytes.Equal(buf, make([]byte, failmap.LineSize)) {
		t.Fatal("orphaned line read back non-zero data: the torn buffer contents survived the cut")
	}
	if !d2.Unavailable(97) {
		t.Fatal("orphaned line not reported unavailable after restore")
	}
	drained := 0
	for {
		if _, ok := d2.Drain(); !ok {
			break
		}
		drained++
	}
	if drained != 3 {
		t.Fatalf("drained %d orphans, want 3", drained)
	}
}

// TestImageStallRestored: if enough orphans re-park to cross the
// watermark, the restored device comes up stalled, exactly as the
// interrupted machine was.
func TestImageStallRestored(t *testing.T) {
	d, clock := imageTestDevice(Config{Size: 1 << 20, TrackData: true, Seed: 1,
		BufferCap: 8, BufferReserve: 2})
	for line := 0; !d.Stalled(); line++ {
		d.ForceFail(line, nil)
	}
	d2, err := NewDeviceFromImage(d.Snapshot(), clock, nil)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !d2.Stalled() {
		t.Fatal("device was stalled at the cut but restored unstalled")
	}
}

// TestImageRestoreCap: a restore takes a module of maxImageSize and refuses
// one a page larger, before it sizes anything from the module.
func TestImageRestoreCap(t *testing.T) {
	img := NewDevice(Config{Size: 4 * failmap.PageSize, Seed: 1}, nil).Snapshot()
	for _, tc := range []struct {
		size int
		ok   bool
	}{{maxImageSize, true}, {maxImageSize + failmap.PageSize, false}} {
		img.Size = tc.size
		img.Writes = make([][]uint64, (img.slots()+enduranceChunk-1)/enduranceChunk)
		img.Broken = make([][]bool, len(img.Writes))
		d, err := NewDeviceFromImage(img, nil, nil)
		if tc.ok && (err != nil || d.Lines() != tc.size/failmap.LineSize) {
			t.Fatalf("%d-byte module: %v", tc.size, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "past the")) {
			t.Fatalf("%d-byte module: error %v, want the restore cap", tc.size, err)
		}
	}
}

// TestImageValidatesGeometry: corrupt images are rejected with an error, not
// absorbed and not left to panic at the first write that indexes them.
func TestImageValidatesGeometry(t *testing.T) {
	d, clock := imageTestDevice(Config{Size: 1 << 20, TrackData: true, Seed: 1,
		WearLeveling: StartGap, GapInterval: 1})
	driveWrites(d, 1, 100) // the gap has moved and some pages are resident
	if _, err := NewDeviceFromImage(d.Snapshot(), clock, nil); err != nil {
		t.Fatalf("intact image rejected: %v", err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(img *DeviceImage)
	}{
		{"out-of-range orphan", func(img *DeviceImage) { img.Orphans = []OrphanLine{{Line: 1 << 30}} }},
		{"duplicate orphan", func(img *DeviceImage) { img.Orphans = []OrphanLine{{Line: 5}, {Line: 5}} }},
		{"negative gap", func(img *DeviceImage) { img.Gap = -1 }},
		{"gap past the last slot", func(img *DeviceImage) { img.Gap = int32(len(img.Occupant)) }},
		{"gap on an occupied slot", func(img *DeviceImage) { img.Gap = img.Perm[0] }},
		{"line mapped outside the module", func(img *DeviceImage) { img.Perm[7] = int32(len(img.Occupant)) }},
		{"two lines mapped to one slot", func(img *DeviceImage) { img.Perm[7] = img.Perm[8] }},
		{"occupant disagrees with its line", func(img *DeviceImage) { img.Occupant[img.Perm[7]] = 8 }},
		{"negative failed-line count", func(img *DeviceImage) { img.FailedLines = -1 }},
		{"page directory one short", func(img *DeviceImage) { img.Data = img.Data[:len(img.Data)-1] }},
		{"page directory missing", func(img *DeviceImage) { img.Data = nil }},
		{"page of half a page", func(img *DeviceImage) { img.Data[0] = make([]byte, failmap.PageSize/2) }},
		{"clustering regions that do not tile the module", func(img *DeviceImage) { img.ClusterPages = 3 }},
		{"clustering region larger than the module", func(img *DeviceImage) { img.ClusterPages = math.MaxInt }},
		{"negative clustering region", func(img *DeviceImage) { img.ClusterPages = -2 }},
		{"start-gap with clustering", func(img *DeviceImage) { img.ClusterPages = 1 }},
		{"wear counters one chunk short", func(img *DeviceImage) { img.Writes = img.Writes[:len(img.Writes)-1] }},
		{"broken flags one chunk over", func(img *DeviceImage) { img.Broken = append(img.Broken, nil) }},
		{"wear chunk one slot short", func(img *DeviceImage) { img.Writes[0] = make([]uint64, enduranceChunk-1) }},
		{"broken chunk of a whole chunk where the module ends", func(img *DeviceImage) {
			img.Broken[len(img.Broken)-1] = make([]bool, enduranceChunk)
		}},
	} {
		img := d.Snapshot()
		tc.corrupt(img)
		if _, err := NewDeviceFromImage(img, clock, nil); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
