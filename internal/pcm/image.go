package pcm

import (
	"encoding/gob"
	"fmt"
	"io"

	"wearmem/internal/cluster"
	"wearmem/internal/failmap"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
)

// OrphanLine records one failure-buffer entry that was pending when power
// was cut. The buffer is volatile SRAM (§3.1.1): the parked data — the last
// value software wrote to the failed line — is lost with it. Only the fact
// that the line was mid-failure survives, because the storage's broken flag
// is physical ground truth.
type OrphanLine struct {
	Line int  `json:"line"`
	Fake bool `json:"fake"`
}

// DeviceImage is the serializable durable state of a PCM module: the
// per-slot wear counters and broken flags, the start-gap permutation, the
// clustering redirection maps and the line contents. The endurance limits
// are not state: Seed and the geometry give every slot's. Volatile state —
// the failure buffer, its lifetime accounting, the redirection-map cache,
// the interrupt registrations — is NOT captured: entries pending in the
// buffer at snapshot time appear only as Orphans, and restoring re-parks
// them with zeroed (torn) data so the OS can detect and retire them without
// ever recovering their contents.
//
// A snapshot of a quiescent device (empty buffer) restores to a state
// byte-identical to never having lost power; a mid-operation snapshot
// models an unclean shutdown.
type DeviceImage struct {
	// Geometry and configuration (the resolved values, defaults applied).
	Size          int          `json:"size"`
	Endurance     uint64       `json:"endurance"`
	Variation     float64      `json:"variation"`
	BufferCap     int          `json:"buffer_cap"`
	BufferReserve int          `json:"buffer_reserve"`
	ClusterPages  int          `json:"cluster_pages"`
	WearLeveling  WearLeveling `json:"wear_leveling"`
	GapInterval   int          `json:"gap_interval"`
	TrackData     bool         `json:"track_data"`
	Seed          int64        `json:"seed"`

	// Per-slot wear state (slots include the start-gap spare when the
	// scheme is enabled). Writes and Broken hold one entry per
	// enduranceChunk slots, the last one shorter when the slots do not fill
	// it, as the device holds them (wearStore): the chunk's counters or
	// flags, or empty for a chunk whose slots are all zero, which reads as
	// zeros.
	Writes      [][]uint64 `json:"writes"`
	Broken      [][]bool   `json:"broken"`
	FailedLines int        `json:"failed_lines"`

	// Start-gap wear-leveling state.
	Perm       []int32 `json:"perm,omitempty"`
	Occupant   []int32 `json:"occupant,omitempty"`
	Gap        int32   `json:"gap"`
	SinceMove  int     `json:"since_move"`
	GapCarries uint64  `json:"gap_carries"`

	// Clustering redirection maps (instantiated regions only).
	Regions []cluster.RegionImage `json:"regions,omitempty"`

	// Line contents (when TrackData): one entry per page of storage slots,
	// PageSize bytes for a page that was stored to and empty for one that
	// was not, which reads as zeros. EncodeImage writes it in this form, an
	// absent page costing one byte.
	Data [][]byte `json:"data,omitempty"`

	// Orphans are the failure-buffer entries lost to the power cut, in
	// FIFO order. Empty for a quiescent snapshot.
	Orphans []OrphanLine `json:"orphans,omitempty"`

	// OSBlob is the reserved OS metadata area (durable kernel policy
	// state). Absent in images taken before it existed.
	OSBlob []byte `json:"os_blob,omitempty"`
}

// Snapshot captures the device's durable state at this instant, as a power
// cut would leave it: wear, failures, redirection and data persist; the
// failure buffer's entries are recorded only as orphans, their parked data
// dropped. Snapshot does not disturb the running device — it is safe at
// any probe point because the device queues interrupt callbacks instead of
// holding its lock across them.
func (d *Device) Snapshot() *DeviceImage {
	d.mu.Lock()
	defer d.mu.Unlock()
	img := &DeviceImage{
		Size:          d.cfg.Size,
		Endurance:     d.cfg.Endurance,
		Variation:     d.cfg.Variation,
		BufferCap:     d.cfg.BufferCap,
		BufferReserve: d.cfg.BufferReserve,
		ClusterPages:  d.cfg.ClusterPages,
		WearLeveling:  d.cfg.WearLeveling,
		GapInterval:   d.cfg.GapInterval,
		TrackData:     d.cfg.TrackData,
		Seed:          d.cfg.Seed,

		FailedLines: int(d.failedLines.Load()),
		Gap:         d.gap,
		SinceMove:   d.sinceMove,
		GapCarries:  d.gapCarries,
		Regions:     d.array.Snapshot(),
	}
	if d.perm != nil {
		img.Perm = append([]int32(nil), d.perm...)
		img.Occupant = append([]int32(nil), d.occupant...)
	}
	img.Writes, img.Broken = nonzeroChunks(d.wear.writes), nonzeroChunks(d.wear.broken)
	img.Data = cloneChunks(d.data)
	if len(d.osBlob) > 0 {
		img.OSBlob = append([]byte(nil), d.osBlob...)
	}
	for i := d.head; i < len(d.buffer); i++ {
		if d.buffer[i].Line >= 0 {
			img.Orphans = append(img.Orphans, OrphanLine{Line: d.buffer[i].Line, Fake: d.buffer[i].Fake})
		}
	}
	return img
}

// NewDeviceFromImage restores a device from a snapshot, reattaching the
// clock and probe hook (both volatile). Wear counters and redirection maps
// come back exactly as captured. The restored device draws its endurance
// limits from Seed's stream as a fresh one does, so a restored slot fails
// at the same write count it would have; restoring draws none. Orphaned
// failure-buffer entries are re-parked with zeroed data: the failed lines
// remain detectable and drainable, but what software last wrote to them is
// gone (torn lines). If enough orphans re-park to reach the watermark, the
// device restarts stalled, exactly as the interrupted OS would have found
// it.
func NewDeviceFromImage(img *DeviceImage, clock *stats.Clock, hook probe.Hook) (*Device, error) {
	if img.Size <= 0 || img.Size%failmap.PageSize != 0 {
		return nil, fmt.Errorf("pcm: image size %d not a positive multiple of the page size", img.Size)
	}
	if img.Size > maxImageSize {
		return nil, fmt.Errorf("pcm: image of a %d-byte module, past the %d bytes a restore takes", img.Size, maxImageSize)
	}
	if pages := img.Size / failmap.PageSize; img.ClusterPages < 0 ||
		img.ClusterPages > 0 && (img.ClusterPages > pages || pages%img.ClusterPages != 0) {
		return nil, fmt.Errorf("pcm: image of %d pages is not a whole number of %d-page clustering regions",
			img.Size/failmap.PageSize, img.ClusterPages)
	}
	if img.WearLeveling == StartGap && img.ClusterPages > 0 {
		return nil, fmt.Errorf("pcm: image pairs start-gap wear leveling with failure clustering, which are exclusive")
	}
	n, slots := img.Size/failmap.LineSize, img.slots()
	// The chunk counts vouch for the slots, so they are checked before
	// anything else is sized from img.Size.
	if err := checkChunks(img.Writes, slots, "wear counters"); err != nil {
		return nil, err
	}
	if err := checkChunks(img.Broken, slots, "broken flags"); err != nil {
		return nil, err
	}
	if img.TrackData {
		if want := storePages(slots); len(img.Data) != want {
			return nil, fmt.Errorf("pcm: image data covers %d pages, want %d", len(img.Data), want)
		}
		for i, p := range img.Data {
			if len(p) != 0 && len(p) != failmap.PageSize {
				return nil, fmt.Errorf("pcm: image data page %d is %d bytes, want 0 or %d", i, len(p), failmap.PageSize)
			}
		}
	}
	if img.FailedLines < 0 {
		return nil, fmt.Errorf("pcm: image failed-line count %d negative", img.FailedLines)
	}
	if img.BufferCap <= 0 || img.BufferReserve <= 0 || img.BufferReserve >= img.BufferCap {
		return nil, fmt.Errorf("pcm: image buffer sizing %d/%d invalid", img.BufferReserve, img.BufferCap)
	}
	d := &Device{
		cfg: Config{
			Size:          img.Size,
			Endurance:     img.Endurance,
			Variation:     img.Variation,
			BufferCap:     img.BufferCap,
			BufferReserve: img.BufferReserve,
			ClusterPages:  img.ClusterPages,
			WearLeveling:  img.WearLeveling,
			GapInterval:   img.GapInterval,
			TrackData:     img.TrackData,
			Seed:          img.Seed,
			Probe:         hook,
		},
		lines:      n,
		clock:      clock,
		index:      make(map[int]int),
		wear:       wearStore{writes: cloneChunks(img.Writes), broken: cloneChunks(img.Broken), slots: slots},
		gap:        img.Gap,
		sinceMove:  img.SinceMove,
		gapCarries: img.GapCarries,
	}
	d.failedLines.Store(int64(img.FailedLines))
	if img.WearLeveling == StartGap {
		if len(img.Perm) != n || len(img.Occupant) != slots {
			return nil, fmt.Errorf("pcm: image start-gap maps cover %d/%d entries, want %d/%d",
				len(img.Perm), len(img.Occupant), n, slots)
		}
		// Every write indexes these maps unchecked: the gap is a slot that
		// backs no line, and every other slot backs the line that maps to it.
		if img.Gap < 0 || int(img.Gap) >= slots || img.Occupant[img.Gap] != -1 {
			return nil, fmt.Errorf("pcm: image start-gap slot %d is not an unoccupied slot", img.Gap)
		}
		for l, s := range img.Perm {
			if s < 0 || int(s) >= slots || img.Occupant[s] != int32(l) {
				return nil, fmt.Errorf("pcm: image start-gap maps disagree on line %d", l)
			}
		}
		d.perm = append([]int32(nil), img.Perm...)
		d.occupant = append([]int32(nil), img.Occupant...)
	}
	if img.ClusterPages > 0 {
		a, err := cluster.ArrayFromImage(img.Size, img.ClusterPages, clusterCache, clock, img.Regions)
		if err != nil {
			return nil, err
		}
		d.array = a
	}
	if img.TrackData {
		d.data = cloneChunks(img.Data)
	}
	if len(img.OSBlob) > 0 {
		d.osBlob = append([]byte(nil), img.OSBlob...)
	}
	// Re-park the orphans with torn (zeroed) data. This bypasses pushBuffer
	// so restoring neither charges the clock nor fires interrupts — the
	// machine comes up with the entries already parked, and the OS discovers
	// them when it first services the device.
	for _, o := range img.Orphans {
		if o.Line < 0 || o.Line >= n {
			return nil, fmt.Errorf("pcm: image orphan line %d outside module", o.Line)
		}
		if _, dup := d.index[o.Line]; dup {
			return nil, fmt.Errorf("pcm: image orphan line %d duplicated", o.Line)
		}
		d.buffer = append(d.buffer, FailureRecord{
			Line: o.Line, Data: make([]byte, failmap.LineSize), Fake: o.Fake,
		})
		d.index[o.Line] = len(d.buffer) - 1
		d.live.Add(1)
		d.pushed++
	}
	if d.BufferLen() >= d.Watermark() {
		d.stalled.Store(true)
	}
	return d, nil
}

// maxImageSize is the largest module an image restores. With the wear
// state chunked, a restore sizes from the module only directories that the
// image's entries back, a byte each at least, and the clustering array's
// region directory (8 bytes a page at one page a region). What bounds the
// module is the machine booted on it, whose kernel sizes its frame tables
// from the module: booting and recovering a fresh 256 MB image allocates
// 3.7 MB and takes about 6 ms where the torture pool's 16 MB takes 0.4 ms;
// at 1 GB one input of chaos.FuzzRecoverImage would take 15 MB and 27 ms.
const maxImageSize = 256 << 20

// slots is the number of storage slots of the module img describes: one a
// line, and the start-gap spare.
func (img *DeviceImage) slots() int {
	if img.WearLeveling == StartGap {
		return img.Size/failmap.LineSize + 1
	}
	return img.Size / failmap.LineSize
}

// ValidateClusters checks the clustering hardware's redirection maps
// (permutation, clustered-end contiguity); nil without clustering. The
// recovered-state verifier calls it after a restore.
func (d *Device) ValidateClusters() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.array.Validate()
}

// EncodeImage writes the image in a self-describing binary form.
func EncodeImage(w io.Writer, img *DeviceImage) error {
	return gob.NewEncoder(w).Encode(img)
}

// DecodeImage reads an image written by EncodeImage.
func DecodeImage(r io.Reader) (*DeviceImage, error) {
	var img DeviceImage
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, err
	}
	return &img, nil
}
