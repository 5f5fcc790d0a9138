// Package pcm models a phase-change-memory module at line granularity.
//
// The model implements the hardware behaviour the paper relies on (§2.2,
// §3.1): per-line write endurance with process variation, verify-after-write
// failure detection, a small FIFO failure buffer that preserves the data of
// failed writes and forwards it to reads until the OS handles the failure
// (with a watermark interrupt and write stalling when it is nearly full),
// interrupt delivery to the OS, optional failure-clustering hardware
// (internal/cluster), and start-gap wear leveling as the conventional
// comparator for the §7.2 "wear leveling considered harmful" study.
package pcm

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"wearmem/internal/cluster"
	"wearmem/internal/failmap"
	"wearmem/internal/probe"
	"wearmem/internal/sched"
	"wearmem/internal/stats"
)

// FailureRecord is one failure buffer entry: the module-visible address of
// a line whose write exhausted error correction, plus the data the program
// intended to write (§3.1.1).
type FailureRecord struct {
	Line int
	Data []byte
	// Fake marks the entry installed by the clustering hardware to reserve
	// a metadata line before the first real failure is reported (§3.1.2).
	Fake bool
}

// Config parametrizes a Device.
type Config struct {
	// Size of the module in bytes; must be a positive multiple of the page
	// size.
	Size int
	// Endurance is the mean number of writes a line tolerates before
	// permanent failure. Zero means infinite endurance (no wear).
	Endurance uint64
	// Variation is the relative spread of per-line endurance around the
	// mean (coefficient of variation of the manufacturing process). Zero
	// means every line has exactly Endurance writes.
	Variation float64
	// ECCEntries is the per-line hard-error correction capacity (e.g. ECP
	// [22]): each stuck bit consumes one entry and extends the line's life
	// by ECCLease writes; the line fails permanently only when the entries
	// are exhausted (§2.2's "finite error correction resources").
	ECCEntries int
	// ECCLease is the extra write budget each consumed correction entry
	// grants; defaults to 10% of Endurance.
	ECCLease uint64
	// BufferCap is the failure buffer capacity in entries. Zero selects a
	// default of 32 (comparable to a load/store queue, §3.1.1).
	BufferCap int
	// BufferReserve is how many entries are held back to drain outstanding
	// writes; when free entries fall to this level the device raises the
	// buffer-full interrupt and stalls writes. Defaults to 4.
	BufferReserve int
	// ClusterPages enables failure-clustering hardware with regions of the
	// given number of pages; zero disables clustering.
	ClusterPages int
	// WearLeveling selects the wear-leveling scheme.
	WearLeveling WearLeveling
	// GapInterval is the number of writes between start-gap movements
	// (ψ in the start-gap paper). Defaults to 100 when start-gap is on.
	GapInterval int
	// TrackData stores line contents so reads return written data. Wear
	// studies over large modules can disable it to save host memory.
	TrackData bool
	// Seed drives the endurance variation sampling.
	Seed int64
	// Probe observes failure-buffer events for fault-injection campaigns;
	// nil (the default) costs one branch per event and charges nothing.
	Probe probe.Hook
}

// clusterCache is the clustering hardware's redirection-map cache capacity
// in entries.
const clusterCache = 16

// WearLeveling selects how the device spreads write wear.
type WearLeveling int

const (
	// NoWearLeveling writes each line in place; skewed write traffic wears
	// hot lines first, concentrating failures.
	NoWearLeveling WearLeveling = iota
	// StartGap rotates a gap line through the module so writes spread
	// uniformly (Qureshi et al. [17], the paper's "accepted hardware
	// wisdom" comparator).
	StartGap
)

// ErrStalled is returned by Write when the failure buffer has reached its
// watermark and the module refuses further writes until the OS drains at
// least one entry (§3.1.1).
var ErrStalled = errors.New("pcm: write stalled, failure buffer full")

// Device is a simulated PCM module.
//
// A Device is single-owner until it is shared (the ownership rule is
// sched.Lock's): a fresh or restored device is not safe for concurrent use,
// which is all the baton engine, the wear studies and every bare device
// driven from one goroutine need. SetConcurrent shares it; the threaded
// engine's constructor does, on the device of the kernel it boots on, so a
// restored device is equipped again by the runtime that boots on it. On an
// equipped device every write to mutable state happens under mu, so writes
// from any mutator — and the failure interrupts they raise — are safe.
//
// Three status words (failedLines, live, stalled) are atomics in both
// modes: they are stored only inside the critical section, but FailedLines,
// FailureRate, BufferLen and Stalled load them without the lock, because
// pollers call those once per write. A status read taken while a write is
// in flight on another goroutine is therefore a momentary value, not
// ordered against that write; readers that need a consistent picture read
// at a point where nothing is writing (internal/verify runs at
// stop-the-world points) or take a Snapshot. Those four, Lines, Size and
// Watermark are all a poller may call on a device it does not own and that
// has not been equipped.
//
// The interrupt callbacks (probe, OnFailure, OnBufferFull) are queued inside
// the critical section and invoked after it ends, in both modes: the OS
// handler they reach drains the buffer and re-enters the device (Go mutexes
// are not re-entrant), and it must find the device as the finished write
// left it, not part-way through one. The lock order through the stack is
// core.Immix.mu → kernel.Kernel.mu → Device.mu; on a single-owner device
// the chain ends at Kernel.mu. The clock is charged by whichever goroutine
// holds the scheduler baton (it stays single-owner; pass nil for
// free-threaded use).
type Device struct {
	mu    sched.Lock // unshared until SetConcurrent
	cfg   Config
	lines int
	clock *stats.Clock // may be nil

	// Wear state, indexed by physical storage slot.
	writes    []uint64
	endurance []uint64
	eccLeft   []uint8
	broken    []bool

	correctedBits uint64

	// Start-gap state: perm maps module line -> storage slot; occupant is
	// the inverse. One spare slot hosts the moving gap.
	perm       []int32
	occupant   []int32
	gap        int32
	sinceMove  int
	gapCarries uint64 // extra writes performed by gap movement

	// Clustering hardware between module-visible lines and start-gap input.
	array *cluster.Array

	data lineStore // nil unless cfg.TrackData

	// Failure buffer. Entries live in buffer[head:]; invalidated entries
	// (superseded by a newer failure of the same line) become tombstones
	// (Line < 0) instead of being cut out of the middle, and index maps a
	// module line to the position of its single live entry, so the §3.1.1
	// same-address invalidation on push is O(1) instead of a scan plus a
	// middle-of-slice delete. Dead space is compacted away amortized.
	buffer    []FailureRecord
	head      int          // first in-buffer position (FIFO drain cursor)
	tombs     int          // tombstones in buffer[head:]
	index     map[int]int  // module line -> live entry position
	live      atomic.Int64 // live (non-tombstone) entries
	onFailure func()
	onFull    func()
	stalled   atomic.Bool
	// calls holds interrupt callbacks queued by pushBuffer inside a
	// critical section; the public entry point that triggered them runs
	// the queue after unlock, on a single-owner device too.
	calls []func()

	// Lifetime failure-buffer accounting, exposed for the drain-accounting
	// invariant (internal/verify): live == pushed - invalidated - drained.
	pushed      uint64
	invalidated uint64
	drained     uint64

	failedLines atomic.Int64

	// osBlob is the reserved OS metadata area: a small durable byte blob
	// the kernel persists its placement/remap policy state into. It
	// survives Snapshot/restore like the wear state (writes to it are
	// modeled as wear-free metadata updates — real firmware keeps such
	// records in a dedicated, lightly written region).
	osBlob []byte
}

// NewDevice builds a module from cfg.
func NewDevice(cfg Config, clock *stats.Clock) *Device {
	if cfg.Size <= 0 || cfg.Size%failmap.PageSize != 0 {
		panic(fmt.Sprintf("pcm: size %d not a positive multiple of the page size", cfg.Size))
	}
	if cfg.BufferCap == 0 {
		cfg.BufferCap = 32
	}
	if cfg.BufferReserve == 0 {
		cfg.BufferReserve = 4
	}
	if cfg.BufferReserve >= cfg.BufferCap {
		panic("pcm: BufferReserve must be below BufferCap")
	}
	if cfg.WearLeveling == StartGap && cfg.GapInterval == 0 {
		cfg.GapInterval = 100
	}
	n := cfg.Size / failmap.LineSize
	d := &Device{
		cfg:   cfg,
		lines: n,
		clock: clock,
		index: make(map[int]int),
	}
	slots := n
	if cfg.WearLeveling == StartGap {
		slots = n + 1 // spare gap slot
	}
	d.writes = make([]uint64, slots)
	d.broken = make([]bool, slots)
	if cfg.Endurance > 0 {
		if cfg.ECCLease == 0 {
			cfg.ECCLease = cfg.Endurance / 10
		}
		d.cfg = cfg
		d.endurance = make([]uint64, slots)
		rng := rand.New(rand.NewSource(cfg.Seed))
		for i := range d.endurance {
			d.endurance[i] = sampleEndurance(cfg.Endurance, cfg.Variation, rng)
		}
		if cfg.ECCEntries > 0 {
			if cfg.ECCEntries > 255 {
				panic("pcm: ECCEntries above 255")
			}
			d.eccLeft = make([]uint8, slots)
			for i := range d.eccLeft {
				d.eccLeft[i] = uint8(cfg.ECCEntries)
			}
		}
	}
	if cfg.WearLeveling == StartGap {
		d.perm = make([]int32, n)
		d.occupant = make([]int32, slots)
		for i := 0; i < n; i++ {
			d.perm[i] = int32(i)
			d.occupant[i] = int32(i)
		}
		d.gap = int32(n) // spare slot starts as the gap
		d.occupant[n] = -1
	}
	if cfg.ClusterPages > 0 {
		d.array = cluster.NewArray(cfg.Size, cfg.ClusterPages, clusterCache, clock)
	}
	if cfg.TrackData {
		d.data = newLineStore(slots)
	}
	return d
}

func sampleEndurance(mean uint64, variation float64, rng *rand.Rand) uint64 {
	if variation <= 0 {
		return mean
	}
	f := 1 + variation*rng.NormFloat64()
	if f < 0.05 {
		f = 0.05
	}
	e := uint64(float64(mean) * f)
	if e == 0 {
		e = 1
	}
	return e
}

// SetConcurrent equips the device with its lock so concurrent goroutines
// may use it. Enable before sharing; there is no way back.
func (d *Device) SetConcurrent() { d.mu.Share() }

// Lines returns the number of module-visible lines.
func (d *Device) Lines() int { return d.lines }

// Size returns the module size in bytes.
func (d *Device) Size() int { return d.cfg.Size }

// OnFailure registers the failure interrupt handler (the OS). It fires once
// per new failure buffer entry.
func (d *Device) OnFailure(fn func()) {
	d.mu.Lock()
	d.onFailure = fn
	d.mu.Unlock()
}

// OnBufferFull registers the watermark interrupt handler.
func (d *Device) OnBufferFull(fn func()) {
	d.mu.Lock()
	d.onFull = fn
	d.mu.Unlock()
}

// Stalled reports whether the module is currently refusing writes.
func (d *Device) Stalled() bool { return d.stalled.Load() }

// BufferLen returns the number of pending failure buffer entries.
func (d *Device) BufferLen() int { return int(d.live.Load()) }

// Watermark returns the buffer fill level at which writes stall.
func (d *Device) Watermark() int { return d.cfg.BufferCap - d.cfg.BufferReserve }

// BufferAccounting returns the lifetime failure-buffer counters: entries
// pushed, entries invalidated by a newer same-line failure, and entries
// drained. BufferLen() == pushed - invalidated - drained at all times.
func (d *Device) BufferAccounting() (pushed, invalidated, drained uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pushed, d.invalidated, d.drained
}

// BufferedLines returns the module lines of the pending buffer entries in
// FIFO order, including clustering-metadata reservations.
func (d *Device) BufferedLines() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]int, 0, d.live.Load())
	for i := d.head; i < len(d.buffer); i++ {
		if d.buffer[i].Line >= 0 {
			out = append(out, d.buffer[i].Line)
		}
	}
	return out
}

// FailedLines returns the number of permanently failed lines so far.
func (d *Device) FailedLines() int { return int(d.failedLines.Load()) }

// FailureRate returns the fraction of module lines that have failed.
func (d *Device) FailureRate() float64 {
	return float64(d.failedLines.Load()) / float64(d.lines)
}

// storageOf maps a module-visible line through clustering and wear leveling
// to its storage slot.
func (d *Device) storageOf(line int) int {
	l := line
	if d.array != nil {
		l = d.array.Translate(l)
	}
	if d.cfg.WearLeveling == StartGap {
		return int(d.perm[l])
	}
	return l
}

// Unavailable reports whether the module-visible line is unusable by
// software (surfaced failure or clustering metadata).
func (d *Device) Unavailable(line int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.unavailableLocked(line)
}

func (d *Device) unavailableLocked(line int) bool {
	if line < 0 || line >= d.lines {
		panic(fmt.Sprintf("pcm: line %d out of range", line))
	}
	if d.array != nil {
		return d.array.Unavailable(line)
	}
	return d.broken[d.storageOf(line)]
}

// Read copies the line's contents into dst (len >= LineSize). Reads check
// the failure buffer first and forward the latest value written to a failed
// location (§3.1.1); the check happens in parallel with the array access in
// hardware, so it costs nothing extra in the model.
func (d *Device) Read(line int, dst []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.clock != nil {
		d.clock.Charge1(stats.EvFailBufSearch)
	}
	// Same-address invalidation on push keeps at most one entry per line,
	// so the associative search is one index lookup.
	if i, ok := d.index[line]; ok && !d.buffer[i].Fake {
		copy(dst, d.buffer[i].Data)
		return
	}
	if d.data == nil {
		return
	}
	d.data.read(d.storageOf(line), dst)
}

// Write stores data (LineSize bytes) to the module-visible line, applying
// wear. If the line's storage exhausts its endurance, the write is parked
// in the failure buffer and the failure interrupt fires; Write still
// returns nil, because from software's point of view the write succeeded
// (the data is retained and forwarded to reads until the OS drains the
// entry). Write returns ErrStalled, without writing, when the buffer
// watermark has been reached.
func (d *Device) Write(line int, data []byte) error {
	_, err := d.WriteRun([]int{line}, data)
	return err
}

// WriteRun writes data to each of lines in order in one critical section
// (one acquisition of the lock on an equipped device, none on a
// single-owner one), exactly as that many calls to Write would, and returns
// how many writes it applied. It stops early, with a nil error, after the
// first write that leaves the failure buffer non-empty: that write's
// interrupt callbacks then run (after the critical section, in the order
// Write would have run them) before the caller sees n, so a handler that
// drains observes the same device state it would have under Write, and a
// caller that drains itself does so before resuming with lines[n:]. A
// write that finds the module stalled is not applied and ends the run with
// ErrStalled; lines[n] is then the refused write.
func (d *Device) WriteRun(lines []int, data []byte) (n int, err error) {
	for _, line := range lines {
		if line < 0 || line >= d.lines {
			panic(fmt.Sprintf("pcm: line %d out of range", line))
		}
	}
	d.mu.Lock()
	// What a run reads once: the policy is fixed at construction, and the
	// clustering array, clock and data store are pointers (a slice header)
	// nothing reassigns while the device lives, so no write of this
	// critical section can change them for the next.
	leveled, array, clock, store := d.cfg.WearLeveling == StartGap, d.array, d.clock, d.data
	for _, line := range lines {
		if d.stalled.Load() {
			if clock != nil {
				clock.Charge1(stats.EvFailBufStall)
			}
			err = ErrStalled
			break
		}
		if clock != nil {
			clock.Charge1(stats.EvPCMWrite)
		}
		s := line // its own storage slot on a device that neither levels nor clusters
		if leveled || array != nil {
			// The gap may move the very line being written, and a failed
			// move may redirect it, so resolve the storage slot only after
			// the wear-leveling step.
			if leveled {
				d.wearStep()
			}
			s = d.storageOf(line)
		}
		if d.wear(s) {
			d.reportFailure(line, data)
		} else if store != nil {
			copy(store.line(s), data)
		}
		n++
		if d.live.Load() > 0 {
			break
		}
	}
	d.unlockAndInterrupt()
	return n, err
}

// unlockAndInterrupt ends a critical section and then invokes the interrupt
// callbacks it queued.
func (d *Device) unlockAndInterrupt() {
	calls := d.calls
	d.calls = nil
	d.mu.Unlock()
	for _, fn := range calls {
		fn()
	}
}

// wear applies one write's wear to storage slot s and reports whether the
// slot failed on this write (verify-after-write detection). While hard
// error correction entries remain, each detected stuck bit consumes one
// and extends the line's lease instead of failing it (§2.2).
func (d *Device) wear(s int) bool {
	d.writes[s]++
	if d.endurance == nil || d.broken[s] || d.writes[s] < d.endurance[s] {
		return false
	}
	if d.eccLeft != nil && d.eccLeft[s] > 0 {
		d.eccLeft[s]--
		d.correctedBits++
		d.endurance[s] += d.cfg.ECCLease
		return false
	}
	d.broken[s] = true
	return true
}

// CorrectedBits returns how many stuck bits the per-line error correction
// has absorbed so far.
func (d *Device) CorrectedBits() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.correctedBits
}

// reportFailure surfaces a failure of module line `line` through the
// clustering hardware, parks the data in the failure buffer and interrupts.
func (d *Device) reportFailure(line int, data []byte) {
	d.failedLines.Add(1)
	surfaced := []int{line}
	if d.array != nil {
		surfaced = d.array.Fail(line)
	}
	// The clustering hardware first queues fake failures for any metadata
	// lines it installed, then the entry for the surfaced failure carrying
	// the parked data (§3.1.2). After redirection the failing data's
	// logical line is backed by working storage, so retain the data there.
	for i, l := range surfaced {
		last := i == len(surfaced)-1
		if last && l != line && d.data != nil {
			// The data now lives at line's new storage.
			copy(d.data.line(d.storageOf(line)), data)
		}
		d.pushBuffer(FailureRecord{Line: l, Data: dup(data), Fake: !last})
	}
}

func dup(b []byte) []byte {
	out := make([]byte, failmap.LineSize)
	copy(out, b)
	return out
}

func (d *Device) pushBuffer(rec FailureRecord) {
	// An earlier entry with the same address is invalidated (§3.1.1):
	// tombstone it in place so the FIFO order of the rest is untouched.
	if i, ok := d.index[rec.Line]; ok {
		d.buffer[i] = FailureRecord{Line: -1}
		d.tombs++
		d.live.Add(-1)
		d.invalidated++
	}
	d.buffer = append(d.buffer, rec)
	d.index[rec.Line] = len(d.buffer) - 1
	live := d.live.Add(1)
	d.pushed++
	d.compact()
	if d.clock != nil {
		d.clock.Charge1(stats.EvInterrupt)
	}
	// The interrupt callbacks run after the critical section (the OS
	// handler drains the buffer, re-entering the device); queue them here.
	if d.cfg.Probe != nil {
		line := rec.Line
		d.calls = append(d.calls, func() { d.cfg.Probe(probe.PCMFailure, uint64(line)) })
	}
	if d.onFailure != nil {
		d.calls = append(d.calls, d.onFailure)
	}
	if int(live) >= d.Watermark() {
		d.stalled.Store(true)
		if d.onFull != nil {
			d.calls = append(d.calls, d.onFull)
		}
	}
}

// Drain pops the oldest failure buffer entry (FIFO). The OS must have
// revoked access to the address before draining, because forwarding stops.
// Draining below the watermark un-stalls writes.
func (d *Device) Drain() (FailureRecord, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.head < len(d.buffer) && d.buffer[d.head].Line < 0 {
		d.head++ // skip invalidated entries
		d.tombs--
	}
	if d.head == len(d.buffer) {
		d.buffer = d.buffer[:0]
		d.head = 0
		return FailureRecord{}, false
	}
	rec := d.buffer[d.head]
	d.head++
	delete(d.index, rec.Line)
	live := d.live.Add(-1)
	d.drained++
	d.compact()
	if int(live) < d.Watermark() {
		d.stalled.Store(false)
	}
	return rec, true
}

// compact reclaims the drained prefix and interior tombstones once they
// dominate the backing slice, keeping the per-push and per-drain work
// amortized O(1).
func (d *Device) compact() {
	dead := d.head + d.tombs
	if dead <= 16 || dead*2 <= len(d.buffer) {
		return
	}
	w := 0
	for i := d.head; i < len(d.buffer); i++ {
		if d.buffer[i].Line < 0 {
			continue
		}
		d.buffer[w] = d.buffer[i]
		d.index[d.buffer[w].Line] = w
		w++
	}
	d.buffer = d.buffer[:w]
	d.head = 0
	d.tombs = 0
}

// ForceFail permanently fails the storage behind the module-visible line as
// if its verify-after-write had just exhausted the last correction entry:
// the line's data is parked in the failure buffer and the failure interrupt
// fires. It is the device-level entry of the §5 fault-injection module and
// reports false without effect when the line is already unavailable. A nil
// data argument parks a zeroed line.
func (d *Device) ForceFail(line int, data []byte) bool {
	d.mu.Lock()
	if d.unavailableLocked(line) {
		d.mu.Unlock()
		return false
	}
	if data == nil {
		data = make([]byte, failmap.LineSize)
	}
	s := d.storageOf(line)
	d.broken[s] = true
	if d.eccLeft != nil {
		d.eccLeft[s] = 0
	}
	d.reportFailure(line, data)
	d.unlockAndInterrupt()
	return true
}

// wearStep advances start-gap wear leveling (the caller has checked the
// policy): every GapInterval writes the gap swaps with its neighbour,
// costing one extra write of wear.
func (d *Device) wearStep() {
	d.sinceMove++
	if d.sinceMove < d.cfg.GapInterval {
		return
	}
	d.sinceMove = 0
	src := d.gap - 1
	if src < 0 {
		src = int32(len(d.occupant)) - 1
	}
	l := d.occupant[src]
	if l >= 0 {
		if d.data != nil {
			d.data.move(int(d.gap), int(src))
		}
		d.perm[l] = d.gap
		d.occupant[d.gap] = l
		d.gapCarries++
		// The copy writes the destination slot; its verify-after-write can
		// fail like any other, surfacing a failure of the relocated line.
		if d.wear(int(d.gap)) {
			if d.array.Unavailable(int(l)) {
				// The clustering hardware already took the relocated line
				// from software (a surfaced failure or its own metadata):
				// one more broken storage line, nothing left to surface.
				d.failedLines.Add(1)
			} else {
				data := make([]byte, failmap.LineSize)
				if d.data != nil {
					d.data.read(int(d.gap), data)
				}
				d.reportFailure(int(l), data)
			}
		}
	} else {
		d.occupant[d.gap] = -1
	}
	d.occupant[src] = -1
	d.gap = src
}

// FailMap renders the currently unavailable module-visible lines as a
// failure map.
func (d *Device) FailMap() *failmap.Map {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.array != nil {
		return d.array.FailMap(d.cfg.Size)
	}
	m := failmap.New(d.cfg.Size)
	for p := 0; p < m.Pages(); p++ {
		var bm uint64
		for l := range failmap.LinesPerPage {
			if d.broken[d.storageOf(p*failmap.LinesPerPage+l)] {
				bm |= 1 << uint(l)
			}
		}
		m.SetPageBitmap(p, bm)
	}
	return m
}

// WriteCount returns the lifetime writes absorbed by physical storage slot
// `slot`, gap-movement carries included. Slots are not module lines: under
// start-gap the line a slot backs changes as the gap rotates.
func (d *Device) WriteCount(slot int) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writes[slot]
}

// GapCarries returns the number of extra line writes performed by start-gap
// movement (its wear overhead).
func (d *Device) GapCarries() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gapCarries
}

// WearBucket is one bin of a wear histogram: the number of storage slots
// whose lifetime write count falls in [Lo, Hi), and how many of them have
// permanently failed.
type WearBucket struct {
	Lo     uint64 `json:"lo"`
	Hi     uint64 `json:"hi"`
	Slots  int    `json:"slots"`
	Failed int    `json:"failed"`
}

// WearHistogram bins the per-slot write counts into n equal-width buckets
// spanning [0, max+1). It is the machine-readable wear distribution behind
// the §7.2 studies: wear leveling flattens it, skewed in-place traffic
// concentrates mass in the first and last bins. With n < 1 a single
// all-covering bucket is returned.
func (d *Device) WearHistogram(n int) []WearBucket {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n < 1 {
		n = 1
	}
	var max uint64
	for _, w := range d.writes {
		if w > max {
			max = w
		}
	}
	width := (max + 1 + uint64(n) - 1) / uint64(n) // ceil((max+1)/n)
	out := make([]WearBucket, n)
	for i := range out {
		out[i].Lo = uint64(i) * width
		out[i].Hi = uint64(i+1) * width
	}
	for s, w := range d.writes {
		i := int(w / width)
		out[i].Slots++
		if d.broken[s] {
			out[i].Failed++
		}
	}
	return out
}

// TotalWrites returns the lifetime write count summed over every storage
// slot, including wear-leveling carries.
func (d *Device) TotalWrites() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var sum uint64
	for _, w := range d.writes {
		sum += w
	}
	return sum
}

// PageWrites sums the lifetime write counts of the storage slots currently
// backing each module-visible page — the wear a placement/remap policy
// sees when ranking pages hot to cold. (Under start-gap the slots behind a
// page drift over time; this reports the present backing.)
func (d *Device) PageWrites() []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]uint64, d.lines/failmap.LinesPerPage)
	for l := 0; l < len(out)*failmap.LinesPerPage; l++ {
		out[l/failmap.LinesPerPage] += d.writes[d.storageOf(l)]
	}
	return out
}

// SetOSBlob replaces the contents of the reserved OS metadata area.
func (d *Device) SetOSBlob(b []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.osBlob = append(d.osBlob[:0], b...)
}

// OSBlob returns a copy of the reserved OS metadata area (nil when empty).
func (d *Device) OSBlob() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.osBlob) == 0 {
		return nil
	}
	return append([]byte(nil), d.osBlob...)
}
