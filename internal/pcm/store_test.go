package pcm

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"wearmem/internal/failmap"
)

func residentPages(ls lineStore) int {
	n := 0
	for _, p := range ls {
		if p != nil {
			n++
		}
	}
	return n
}

// TestStoreDifferential drives a device with a seeded write/read/drain
// stream against a flat shadow of the module's contents and compares every
// Read, most of them of lines on pages nothing was ever stored to, into a
// dst that still holds the previous read. Writes go to every eighth page so
// the store keeps absent pages; under start-gap the rotating gap carries
// lines across page boundaries, onto absent pages and from them (a page
// becomes resident when a line of a resident page moves onto it, so
// residency spreads a page a rotation and never reaches every page here).
func TestStoreDifferential(t *testing.T) {
	const pages, written = 32, 4
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"startgap", Config{WearLeveling: StartGap, GapInterval: 1}},
		// Lines fail and park: the failed write is forwarded from the buffer
		// until drained, after which the line reads what its storage last
		// held. (In place, so a parked line is the one just written.)
		{"wearing", Config{Endurance: 40, Variation: 0.3, BufferCap: 64, Seed: 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Size, cfg.TrackData = pages*failmap.PageSize, true
			d := NewDevice(cfg, nil)
			rng := rand.New(rand.NewSource(42))
			shadow := make([]byte, cfg.Size)
			of := func(l int) []byte { return shadow[l*failmap.LineSize : (l+1)*failmap.LineSize] }
			parked := map[int][]byte{}
			drain := func() {
				rec, ok := d.Drain()
				if !ok {
					return
				}
				if !bytes.Equal(rec.Data, parked[rec.Line]) {
					t.Fatalf("drained line %d carries %x, want %x", rec.Line, rec.Data, parked[rec.Line])
				}
				delete(parked, rec.Line)
			}
			data := make([]byte, failmap.LineSize)
			dst := bytes.Repeat([]byte{0xA5}, failmap.LineSize)
			reads, failed := 0, 0
			for op := 0; op < 20000; op++ {
				switch r := rng.Intn(10); {
				case r < 4:
					l := (rng.Intn(written)*pages/written+1)*failmap.LinesPerPage + rng.Intn(failmap.LinesPerPage)
					if d.Unavailable(l) {
						continue
					}
					rng.Read(data)
					if err := d.Write(l, data); err != nil {
						for d.BufferLen() > 0 {
							drain()
						}
						continue
					}
					if d.Unavailable(l) {
						parked[l] = append([]byte(nil), data...)
						failed++
					} else {
						copy(of(l), data)
					}
				case r < 9:
					l := rng.Intn(d.Lines())
					want := of(l)
					if p, ok := parked[l]; ok {
						want = p
					}
					before := residentPages(d.data)
					d.Read(l, dst)
					if !bytes.Equal(dst, want) {
						t.Fatalf("op %d: line %d reads %x, want %x", op, l, dst[:8], want[:8])
					}
					if residentPages(d.data) != before {
						t.Fatalf("op %d: reading line %d allocated a page", op, l)
					}
					reads++
				default:
					drain()
				}
			}
			if tc.name == "wearing" && failed == 0 {
				t.Fatal("no line failed: the parked path went unexercised")
			}
			got := residentPages(d.data)
			if inPlace := tc.cfg.WearLeveling != StartGap; got < written || got >= pages || (inPlace && got != written) {
				t.Fatalf("%d of %d pages resident after %d reads, %d written in place", got, len(d.data), reads, written)
			}
		})
	}
}

// TestStoreAllocatesOnStoreOnly: a device starts with no page, a store
// allocates exactly the page it lands on, and neither Read nor Snapshot
// allocates one — in the device or in the image.
func TestStoreAllocatesOnStoreOnly(t *testing.T) {
	d := NewDevice(Config{Size: 64 * failmap.PageSize, TrackData: true,
		WearLeveling: StartGap, GapInterval: 1000}, nil)
	if len(d.data) != 65 || residentPages(d.data) != 0 {
		t.Fatalf("fresh device: %d resident of %d pages, want 0 of 65 (64 and the gap's)", residentPages(d.data), len(d.data))
	}
	dst := make([]byte, failmap.LineSize)
	for l := 0; l < d.Lines(); l++ {
		d.Read(l, dst)
	}
	d.Snapshot()
	if residentPages(d.data) != 0 {
		t.Fatalf("reads and a snapshot left %d pages resident", residentPages(d.data))
	}
	for i, l := range []int{5 * failmap.LinesPerPage, 5*failmap.LinesPerPage + 63, 40 * failmap.LinesPerPage} {
		if err := d.Write(l, lineData(byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	img := d.Snapshot()
	for l := 0; l < d.Lines(); l++ {
		d.Read(l, dst)
	}
	if got := residentPages(d.data); got != 2 {
		t.Fatalf("three stores on two pages left %d pages resident", got)
	}
	if got := residentPages(img.Data); got != 2 || len(img.Data[5]) != failmap.PageSize || len(img.Data[40]) != failmap.PageSize {
		t.Fatalf("image holds %d pages, want pages 5 and 40", got)
	}
}

// TestStoreMoveAcrossAbsentPages pins the start-gap move's three cases on
// the store itself: absent onto absent allocates nothing, resident onto
// absent carries the line, absent onto resident stores zeros.
func TestStoreMoveAcrossAbsentPages(t *testing.T) {
	ls := newLineStore(3 * failmap.LinesPerPage)
	ls.move(0, failmap.LinesPerPage)
	if residentPages(ls) != 0 {
		t.Fatal("absent onto absent allocated a page")
	}
	copy(ls.line(3), lineData(9))
	ls.move(failmap.LinesPerPage+1, 3)
	dst := make([]byte, failmap.LineSize)
	if ls.read(failmap.LinesPerPage+1, dst); !bytes.Equal(dst, lineData(9)) || residentPages(ls) != 2 {
		t.Fatalf("resident onto absent: read %x, %d pages resident", dst[:4], residentPages(ls))
	}
	ls.move(3, 2*failmap.LinesPerPage)
	if ls.read(3, dst); !bytes.Equal(dst, make([]byte, failmap.LineSize)) || residentPages(ls) != 2 {
		t.Fatalf("absent onto resident: read %x, %d pages resident", dst[:4], residentPages(ls))
	}
}

// TestStoreSnapshotIsolation: an image shares no page with the device it
// was taken from or with any device restored from it. The harness restores
// one image more than once (harness/restart.go) and a campaign snapshots a
// device that keeps running.
func TestStoreSnapshotIsolation(t *testing.T) {
	d, clock := imageTestDevice(Config{Size: 32 * failmap.PageSize, TrackData: true})
	for _, l := range []int{0, 1, 700} {
		if err := d.Write(l, lineData(0x11)); err != nil {
			t.Fatal(err)
		}
	}
	img := d.Snapshot()
	var enc bytes.Buffer
	if err := EncodeImage(&enc, img); err != nil {
		t.Fatal(err)
	}
	want, err := DecodeImage(&enc) // a copy that shares nothing by construction
	if err != nil || !reflect.DeepEqual(img, want) {
		t.Fatalf("image does not survive its encoding: %v", err)
	}
	d.Write(1, lineData(0x22))    // a page the image holds
	d.Write(1500, lineData(0x22)) // a page it does not
	if !reflect.DeepEqual(img, want) {
		t.Fatal("writing to the device after Snapshot changed the image")
	}

	a, err := NewDeviceFromImage(img, clock, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDeviceFromImage(img, clock, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Write(1, lineData(0x33))
	a.Write(1500, lineData(0x33))
	if !reflect.DeepEqual(img, want) {
		t.Fatal("writing to a restored device changed the image it came from")
	}
	if !reflect.DeepEqual(b.Snapshot(), want) {
		t.Fatal("writing to one restored device changed another restored from the same image")
	}
}

// TestStoreSnapshotUnderWriter holds the no-sharing rule under the race
// detector (make race-threaded): images are read and restored with no lock
// while the device they came from keeps storing to the same pages.
func TestStoreSnapshotUnderWriter(t *testing.T) {
	d := NewDevice(Config{Size: 8 * failmap.PageSize, TrackData: true,
		WearLeveling: StartGap, GapInterval: 1}, nil)
	d.SetConcurrent() // shared with the writer below; no threaded VM equips it
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(1))
		buf := make([]byte, failmap.LineSize)
		for i := 0; i < 20000; i++ {
			rng.Read(buf)
			d.Write(rng.Intn(d.Lines()), buf)
		}
	}()
	// Snapshot for as long as the writer runs, and once more after it.
	for images, running := 0, true; running; images++ {
		select {
		case <-done:
			running = false
		default:
		}
		img := d.Snapshot()
		r, err := NewDeviceFromImage(img, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		r.Write(images%r.Lines(), lineData(0xFF))
		sum := 0
		for _, p := range img.Data {
			for _, b := range p {
				sum += int(b)
			}
		}
		if !running && sum == 0 {
			t.Fatal("the image taken after 20000 writes is empty")
		}
	}
}

// TestStoreImageRoundTripSparse: a device with resident and absent pages
// survives EncodeImage → DecodeImage → NewDeviceFromImage unchanged, absent
// pages still absent, and the encoding carries the sparse form.
func TestStoreImageRoundTripSparse(t *testing.T) {
	cfg := Config{Size: 1 << 20, TrackData: true, WearLeveling: StartGap, GapInterval: 7}
	d, clock := imageTestDevice(cfg)
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, failmap.LineSize)
	for i := 0; i < 300; i++ {
		rng.Read(buf)
		// Three clusters of lines, the last against the end of the module.
		l := []int{0, 9000, d.Lines() - 40}[i%3] + rng.Intn(40)
		if err := d.Write(l, buf); err != nil {
			t.Fatal(err)
		}
	}
	img := d.Snapshot()
	if got := residentPages(img.Data); got < 3 || got > 8 {
		t.Fatalf("image holds %d of %d pages, want the few that were written", got, len(img.Data))
	}
	var enc bytes.Buffer
	if err := EncodeImage(&enc, img); err != nil {
		t.Fatal(err)
	}
	if enc.Len() > cfg.Size/4 {
		t.Fatalf("encoded image is %d bytes for a %d-byte module with %d resident pages",
			enc.Len(), cfg.Size, residentPages(img.Data))
	}
	dec, err := DecodeImage(&enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, img) {
		t.Fatal("decoded image differs from the encoded one")
	}
	r, err := NewDeviceFromImage(dec, clock, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Snapshot(), img) {
		t.Fatal("restored device's snapshot differs from the source image")
	}
	got := make([]byte, failmap.LineSize)
	for l := 0; l < d.Lines(); l++ {
		d.Read(l, buf)
		r.Read(l, got)
		if !bytes.Equal(got, buf) {
			t.Fatalf("line %d reads %x restored, %x at the source", l, got[:4], buf[:4])
		}
	}
}

// TestStoreFreshDeviceAllocation: building a module costs three
// directories, not its capacity. A 16 MB torture-shaped device allocates
// 0.1 MB: the page directory of its contents (96 KB) and the chunk
// directories of its wear counters and broken flags (1.5 KB each). With
// dense wear arrays it was 2.4 MB, with every limit drawn as well 4.4 MB,
// and with dense contents besides 20.25 MB.
func TestStoreFreshDeviceAllocation(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := NewDevice(Config{Size: 16 << 20, Endurance: 4096, Variation: 0.25, TrackData: true, Seed: 1}, nil)
	runtime.ReadMemStats(&after)
	if kb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 10); kb >= 125 {
		t.Fatalf("a fresh 16 MB TrackData device allocated %.1f KB, want < 125", kb)
	}
	runtime.KeepAlive(d)
}

// TestWearChunksFollowWrites: a device's wear chunks are resident only
// where a write or a failure reached. A fresh torture-scale device holds
// none, a restore of its image none, and one write one, its counters; the
// image of that device carries that chunk alone, and a restore of it
// holds it alone, as a copy.
func TestWearChunksFollowWrites(t *testing.T) {
	resident := func(d *Device) (n int) {
		for i := range d.wear.writes {
			if d.wear.writes[i] != nil {
				n++
			}
			if d.wear.broken[i] != nil {
				n++
			}
		}
		return n
	}
	restore := func(d *Device) *Device {
		r, err := NewDeviceFromImage(recode(t, d.Snapshot()), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	d := NewDevice(tortureScale(), nil)
	if n := resident(d); n != 0 {
		t.Fatalf("a fresh device holds %d wear chunks", n)
	}
	if n := resident(restore(d)); n != 0 {
		t.Fatalf("a restore of a fresh device's image holds %d wear chunks", n)
	}
	if err := d.Write(5000, make([]byte, failmap.LineSize)); err != nil {
		t.Fatal(err)
	}
	if n := resident(d); n != 1 || d.wear.writes[1] == nil {
		t.Fatalf("a write to slot 5000 left %d wear chunks resident, want chunk 1's counters", n)
	}
	r := restore(d)
	if n := resident(r); n != 1 || r.WriteCount(5000) != 1 {
		t.Fatalf("its restore holds %d wear chunks and %d writes on slot 5000, want 1 and 1", n, r.WriteCount(5000))
	}
	if &r.wear.writes[1][0] == &d.wear.writes[1][0] {
		t.Fatal("the restore shares its counters with the device")
	}
}
