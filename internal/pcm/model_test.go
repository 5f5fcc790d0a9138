package pcm

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"wearmem/internal/cluster"
	"wearmem/internal/failmap"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
)

// model is the device written the slow, obvious way, for
// FuzzDeviceMatchesModel to hold Device to: maps keyed by storage slot,
// loops where Device keeps an index, a word or a cursor, one method per
// operation and no fast path. It reuses cluster.Region for one region's
// redirection map — the §3.1.2 swap-to-the-boundary algorithm, which
// internal/cluster tests on its own — while the array of regions around it,
// the map cache, the gap, the wear and the failure buffer are its own.
type model struct {
	cfg          Config // resolved as NewDevice resolves it
	lines, slots int

	writes    map[int]uint64
	endurance map[int]uint64 // nil: infinite endurance
	broken    map[int]bool
	failed    int

	// Start-gap (nil maps without it): perm takes a module line to its slot
	// and at a slot to its line; the gap is the one slot no line is at.
	perm, at  map[int]int
	gap       int
	sinceMove int
	carries   uint64

	regions map[int]*cluster.Region // nil without clustering; a region exists once a line of it failed
	cache   []int                   // cached region maps, least recently used first

	data map[int][]byte // slot contents, absent ones zeros; nil without TrackData

	buffer                       []FailureRecord // oldest first, at most one entry a line
	stalled                      bool
	pushed, invalidated, drained uint64

	counts     map[stats.Event]uint64
	interrupts []string // probe, failure and watermark callbacks, in order
}

// modelCacheEntries is the clustering hardware's map cache capacity.
const modelCacheEntries = 16

func newModel(cfg Config) *model {
	if cfg.BufferCap == 0 {
		cfg.BufferCap = 32
	}
	if cfg.BufferReserve == 0 {
		cfg.BufferReserve = 4
	}
	if cfg.WearLeveling == StartGap && cfg.GapInterval == 0 {
		cfg.GapInterval = 100
	}
	m := &model{cfg: cfg, lines: cfg.Size / failmap.LineSize,
		writes: map[int]uint64{}, broken: map[int]bool{}, counts: map[stats.Event]uint64{}}
	m.slots = m.lines
	if cfg.WearLeveling == StartGap {
		m.slots++ // the gap's
		m.perm, m.at, m.gap = map[int]int{}, map[int]int{}, m.lines
		for l := 0; l < m.lines; l++ {
			m.perm[l], m.at[l] = l, l
		}
	}
	if cfg.Endurance > 0 {
		// Each slot's endurance is the mean spread by the variation, drawn in
		// slot order from the seed, at least 5% of the mean and one write.
		m.endurance = map[int]uint64{}
		rng := rand.New(rand.NewSource(cfg.Seed))
		for s := 0; s < m.slots; s++ {
			e := cfg.Endurance
			if cfg.Variation > 0 {
				e = max(uint64(float64(cfg.Endurance)*max(1+cfg.Variation*rng.NormFloat64(), 0.05)), 1)
			}
			m.endurance[s] = e
		}
	}
	if cfg.ClusterPages > 0 {
		m.regions = map[int]*cluster.Region{}
	}
	if cfg.TrackData {
		m.data = map[int][]byte{}
	}
	return m
}

// region returns the clustering region of a module line and its offset in it.
func (m *model) region(line int) (idx, off int) {
	n := m.cfg.ClusterPages * failmap.LinesPerPage
	return line / n, line % n
}

// storage returns the slot behind a module line as an access reaches it: a
// line of a region whose map is installed goes through the map cache.
func (m *model) storage(line int) int {
	if m.perm != nil {
		return m.perm[line]
	}
	if m.regions == nil {
		return line
	}
	idx, off := m.region(line)
	r := m.regions[idx]
	if r == nil { // a region exists once its first failure installed the map
		return line
	}
	hit := slices.Contains(m.cache, idx)
	if hit {
		m.cache = slices.DeleteFunc(m.cache, func(c int) bool { return c == idx })
		m.counts[stats.EvRedirectHit]++
	} else {
		m.counts[stats.EvRedirectMiss]++
	}
	m.cache = append(m.cache, idx)
	if len(m.cache) > modelCacheEntries {
		m.cache = m.cache[1:]
	}
	return line - off + r.Storage(off)
}

// unavailable reports whether software has lost the module line: the
// clustering hardware presented it, or (without clustering) its storage is
// broken.
func (m *model) unavailable(line int) bool {
	if m.regions != nil {
		idx, off := m.region(line)
		r := m.regions[idx]
		return r != nil && r.Unavailable(off)
	}
	if m.perm != nil {
		return m.broken[m.perm[line]]
	}
	return m.broken[line]
}

// contents returns a copy of slot s's bytes.
func (m *model) contents(s int) []byte {
	out := make([]byte, failmap.LineSize)
	copy(out, m.data[s])
	return out
}

// wear counts one write to slot s and reports whether it broke the slot: the
// write that reaches the slot's endurance does.
func (m *model) wear(s int) bool {
	m.writes[s]++
	if m.endurance == nil || m.broken[s] || m.writes[s] < m.endurance[s] {
		return false
	}
	m.broken[s] = true
	return true
}

// step is start-gap's share of a write: every GapInterval writes the line in
// the slot below the gap (wrapping from slot 0 to the top) is copied into
// the gap, which wears the gap's slot, and the gap moves down.
func (m *model) step() {
	m.sinceMove++
	if m.sinceMove < m.cfg.GapInterval {
		return
	}
	m.sinceMove = 0
	src, dst := (m.gap+m.slots-1)%m.slots, m.gap
	line := m.at[src]
	if m.data != nil {
		m.data[dst] = m.contents(src)
	}
	m.perm[line], m.at[dst], m.gap = dst, line, src
	delete(m.at, src)
	m.carries++
	if m.wear(dst) {
		m.fail(line, m.contents(dst))
	}
}

// push parks a record in the failure buffer, first cutting out an older
// entry of the same line, and interrupts; at the watermark the module stalls.
func (m *model) push(rec FailureRecord) {
	for i, e := range m.buffer {
		if e.Line == rec.Line {
			m.buffer = slices.Delete(m.buffer, i, i+1)
			m.invalidated++
			break
		}
	}
	m.buffer = append(m.buffer, rec)
	m.pushed++
	m.counts[stats.EvInterrupt]++
	m.interrupts = append(m.interrupts, fmt.Sprintf("probe %d", rec.Line), "failure")
	if len(m.buffer) >= m.cfg.BufferCap-m.cfg.BufferReserve {
		m.stalled = true
		m.interrupts = append(m.interrupts, "watermark")
	}
}

// fail reports that module line's storage broke with data written to it.
// Without clustering the line is parked as it is. With it, a line the
// hardware already presented is absorbed — counted, nothing parked — and
// any other is swapped to the region's boundary: the metadata lines a first
// failure installs park as fake entries, then the surfaced line parks the
// data, which the failing line keeps in its new storage.
func (m *model) fail(line int, data []byte) {
	m.failed++
	if m.regions == nil {
		m.push(FailureRecord{Line: line, Data: slices.Clone(data)})
		return
	}
	idx, off := m.region(line)
	if m.regions[idx] == nil {
		m.regions[idx] = cluster.NewRegion(idx, m.cfg.ClusterPages)
	}
	r := m.regions[idx]
	if r.Unavailable(off) {
		return
	}
	surfaced := r.Fail(off)
	for i, o := range surfaced {
		l, last := line-off+o, i == len(surfaced)-1
		if last && l != line && m.data != nil {
			m.data[m.storage(line)] = slices.Clone(data)
		}
		m.push(FailureRecord{Line: l, Data: slices.Clone(data), Fake: !last})
	}
}

// write is Device.Write.
func (m *model) write(line int, data []byte) error {
	if m.stalled {
		m.counts[stats.EvFailBufStall]++
		return ErrStalled
	}
	m.counts[stats.EvPCMWrite]++
	if m.perm != nil {
		m.step()
	}
	s := m.storage(line)
	if m.wear(s) {
		m.fail(line, data)
	} else if m.data != nil {
		m.data[s] = slices.Clone(data)
	}
	return nil
}

// writeRun is Device.WriteRun: writes until one is refused, fails a line
// (absorbed or not) or leaves the buffer non-empty.
func (m *model) writeRun(lines []int, data []byte) (int, error) {
	for n, line := range lines {
		failed := m.failed
		if err := m.write(line, data); err != nil {
			return n, err
		}
		if len(m.buffer) > 0 || m.failed != failed {
			return n + 1, nil
		}
	}
	return len(lines), nil
}

// writeRepeat is Device.WriteRepeat: n writes of one line as one step, taken
// only where every one of them would just count wear and store — never on a
// stalled, leveling or clustering module, nor when one of the writes would
// reach the slot's endurance.
func (m *model) writeRepeat(line int, data []byte, n int) bool {
	if m.stalled || m.perm != nil || m.regions != nil {
		return false
	}
	for k := 1; k <= n; k++ {
		if m.endurance != nil && !m.broken[line] && m.writes[line]+uint64(k) >= m.endurance[line] {
			return false
		}
	}
	for range n {
		m.writes[line]++
		m.counts[stats.EvPCMWrite]++
	}
	if m.data != nil {
		m.data[line] = slices.Clone(data)
	}
	return true
}

// drain is Device.Drain: pop the oldest entry; below the watermark writes
// resume.
func (m *model) drain() (FailureRecord, bool) {
	if len(m.buffer) == 0 {
		return FailureRecord{}, false
	}
	rec := m.buffer[0]
	m.buffer = m.buffer[1:]
	m.drained++
	if len(m.buffer) < m.cfg.BufferCap-m.cfg.BufferReserve {
		m.stalled = false
	}
	return rec, true
}

// forceFail is Device.ForceFail.
func (m *model) forceFail(line int, data []byte) bool {
	if m.unavailable(line) {
		return false
	}
	if data == nil {
		data = make([]byte, failmap.LineSize)
	}
	m.broken[m.storage(line)] = true
	m.fail(line, data)
	return true
}

// read is Device.Read into a zeroed line: a parked write is forwarded, else
// the storage is read.
func (m *model) read(line int) []byte {
	m.counts[stats.EvFailBufSearch]++
	for _, e := range m.buffer {
		if e.Line == line && !e.Fake {
			return slices.Clone(e.Data)
		}
	}
	if m.data == nil {
		return make([]byte, failmap.LineSize)
	}
	return m.contents(m.storage(line))
}

// restore is a power cut and NewDeviceFromImage: the buffer's entries come
// back with their data torn (zeroed) and the lifetime accounting restarts
// from them; the map cache comes back cold.
func (m *model) restore() {
	for i := range m.buffer {
		m.buffer[i].Data = make([]byte, failmap.LineSize)
	}
	m.pushed, m.invalidated, m.drained = uint64(len(m.buffer)), 0, 0
	m.stalled = len(m.buffer) >= m.cfg.BufferCap-m.cfg.BufferReserve
	m.cache = nil
}

// image is what Device.Snapshot must return, less the line contents and
// the wear counters and broken flags, which matchModel compares slot by slot
// with the model's own.
func (m *model) image() *DeviceImage {
	c := m.cfg
	img := &DeviceImage{
		Size: c.Size, Endurance: c.Endurance, Variation: c.Variation,
		BufferCap: c.BufferCap, BufferReserve: c.BufferReserve,
		ClusterPages: c.ClusterPages, WearLeveling: c.WearLeveling, GapInterval: c.GapInterval,
		TrackData: c.TrackData, Seed: c.Seed, FailedLines: m.failed,
		Gap: int32(m.gap), SinceMove: m.sinceMove, GapCarries: m.carries,
	}
	if m.perm != nil {
		for l := 0; l < m.lines; l++ {
			img.Perm = append(img.Perm, int32(m.perm[l]))
		}
		for s := 0; s < m.slots; s++ {
			line, ok := m.at[s]
			if !ok {
				line = -1
			}
			img.Occupant = append(img.Occupant, int32(line))
		}
	}
	for idx := 0; idx < m.lines; idx++ {
		if r := m.regions[idx]; r != nil {
			img.Regions = append(img.Regions, r.Snapshot())
		}
	}
	for _, e := range m.buffer {
		img.Orphans = append(img.Orphans, OrphanLine{Line: e.Line, Fake: e.Fake})
	}
	return img
}

// opStream reads a fuzz input a byte at a time, zeros past its end.
type opStream struct{ in []byte }

func (o *opStream) next() byte {
	if len(o.in) == 0 {
		return 0
	}
	b := o.in[0]
	o.in = o.in[1:]
	return b
}

// line reads a module line: one byte below 0x80 is one of the first 128
// lines (where metadata and hot lines sit), else two bytes name any line.
func (o *opStream) line(lines int) int {
	b := o.next()
	if b < 0x80 {
		return int(b)
	}
	return (int(b&0x7f)<<8 | int(o.next())) % lines
}

// modelConfig decodes a module's corner: leveling {none, start-gap ψ ∈ {1,
// 3, 7}} or clustering {1, 2, 8 pages}; a tiny or the default buffer;
// contents tracked or not; and the endurance (4 to 32 writes, or infinite)
// and seed. The shape's bit at 14 selects nothing: the bits above it keep
// the meaning committed inputs give them. A module is 8 pages, one 8-page region; under 1-page
// clustering it is 24, more regions than the map cache holds. Shapes 56 to
// 111 are the same corners on a module past the first 4096-slot wear chunk:
// 72 pages, whose second chunk holds 512 slots, or under start-gap 64 pages,
// whose spare slot (slot 4096) is a chunk of one slot.
func modelConfig(shape, wear byte) Config {
	cfg := Config{Size: 8 * failmap.PageSize, Variation: 0.3, Seed: int64(wear)}
	switch k := int(shape % 7); {
	case k >= 1 && k <= 3:
		cfg.WearLeveling, cfg.GapInterval = StartGap, []int{1, 3, 7}[k-1]
	case k == 4:
		cfg.ClusterPages, cfg.Size = 1, 24*failmap.PageSize
	case k >= 5:
		cfg.ClusterPages = []int{2, 8}[k-5]
	}
	if shape/7%2 == 1 {
		cfg.BufferCap, cfg.BufferReserve = 6, 2
	}
	cfg.TrackData = shape/28%2 == 1
	if shape/56%2 == 1 {
		cfg.Size = 72 * failmap.PageSize
		if cfg.WearLeveling == StartGap {
			cfg.Size = 64 * failmap.PageSize
		}
	}
	if wear%16 != 15 {
		cfg.Endurance = 4 + uint64(wear%16)*2
	}
	return cfg
}

// The fuzz input's operations: the first byte of each picks one.
const (
	opWrite       = iota // line, count 1-8, value: Write count times
	opWriteRun           // count 1-16, that many lines, value
	opWriteRepeat        // line, n 1-80, value
	opDrain              // count 1-64: Drain that many times
	opForceFail          // line, byte: odd parks the value, even a zeroed line
	opRestore            // Snapshot → NewDeviceFromImage
	opRead               // line
	numOps
)

// linePattern is a line of data a value names.
func linePattern(v byte) []byte {
	out := make([]byte, failmap.LineSize)
	for i := range out {
		out[i] = v ^ byte(i)
	}
	return out
}

// FuzzDeviceMatchesModel drives Device and the reference model with one
// operation sequence on every corner of the configuration and, after each
// operation, compares what either returned, the durable image (contents
// included), the wear reads (TotalWrites, WearHistogram, PageWrites), the
// failure map, the page words and Unavailable, the buffer accounting, the
// clock's event counts and the interrupt sequence.
func FuzzDeviceMatchesModel(f *testing.F) {
	for _, in := range modelSeeds() {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		src := &opStream{in: in}
		cfg := modelConfig(src.next(), src.next())
		var log []string
		cfg.Probe = func(p probe.Point, addr uint64) {
			if p == probe.PCMFailure {
				log = append(log, fmt.Sprintf("probe %d", addr))
			}
		}
		clock := stats.NewClock(stats.DefaultCosts())
		d, m := NewDevice(cfg, clock), newModel(cfg)
		wire := func() {
			d.OnFailure(func() { log = append(log, "failure") })
			d.OnBufferFull(func() { log = append(log, "watermark") })
		}
		wire()
		for op := 0; op < 200 && len(src.in) > 0; op++ {
			var what string
			switch src.next() % numOps {
			case opWrite:
				line, k, v := src.line(m.lines), 1+int(src.next()%8), src.next()
				what = fmt.Sprintf("write %d ×%d", line, k)
				for i := range k {
					data := linePattern(v + byte(i))
					if got, want := d.Write(line, data), m.write(line, data); got != want {
						t.Fatalf("op %d %s: write %d returned %v, model %v", op, what, i, got, want)
					}
				}
			case opWriteRun:
				lines := make([]int, 1+src.next()%16)
				for i := range lines {
					lines[i] = src.line(m.lines)
				}
				data := linePattern(src.next())
				what = fmt.Sprintf("write run %v", lines)
				gn, gerr := d.WriteRun(lines, data)
				if wn, werr := m.writeRun(lines, data); gn != wn || gerr != werr {
					t.Fatalf("op %d %s: returned (%d, %v), model (%d, %v)", op, what, gn, gerr, wn, werr)
				}
			case opWriteRepeat:
				line, n, data := src.line(m.lines), 1+int(src.next()%80), linePattern(src.next())
				what = fmt.Sprintf("write %d repeated %d", line, n)
				if got, want := d.WriteRepeat(line, data, n), m.writeRepeat(line, data, n); got != want {
					t.Fatalf("op %d %s: returned %v, model %v", op, what, got, want)
				}
			case opDrain:
				k := 1 + int(src.next()%64)
				what = fmt.Sprintf("drain ×%d", k)
				for range k {
					grec, gok := d.Drain()
					if wrec, wok := m.drain(); gok != wok || !reflect.DeepEqual(grec, wrec) {
						t.Fatalf("op %d %s: drained %+v %v, model %+v %v", op, what, grec, gok, wrec, wok)
					}
				}
			case opForceFail:
				line, v := src.line(m.lines), src.next()
				what = fmt.Sprintf("force-fail %d", line)
				var data []byte
				if v%2 == 1 {
					data = linePattern(v)
				}
				if got, want := d.ForceFail(line, data), m.forceFail(line, data); got != want {
					t.Fatalf("op %d %s: returned %v, model %v", op, what, got, want)
				}
			case opRestore:
				what = "restore"
				restored, err := NewDeviceFromImage(d.Snapshot(), clock, cfg.Probe)
				if err != nil {
					t.Fatalf("op %d restore: %v", op, err)
				}
				d = restored
				wire()
				m.restore()
			case opRead:
				line := src.line(m.lines)
				what = fmt.Sprintf("read %d", line)
				got := make([]byte, failmap.LineSize)
				d.Read(line, got)
				if want := m.read(line); !bytes.Equal(got, want) {
					t.Fatalf("op %d %s: read %x, model %x", op, what, got[:8], want[:8])
				}
			}
			matchModel(t, fmt.Sprintf("op %d %s", op, what), d, m, clock, log)
		}
	})
}

// matchModel fails the test where the device's observable state differs from
// the model's.
func matchModel(t *testing.T, at string, d *Device, m *model, clock *stats.Clock, log []string) {
	t.Helper()
	img, want := d.Snapshot(), m.image()
	for s, e := range d.endurance {
		if e != m.endurance[s] {
			t.Fatalf("%s: slot %d drew limit %d, model %d", at, s, e, m.endurance[s])
		}
	}
	writes, err := expandChunks(img.Writes, m.slots)
	if err != nil {
		t.Fatalf("%s: wear counters: %v", at, err)
	}
	broken, err := expandChunks(img.Broken, m.slots)
	if err != nil {
		t.Fatalf("%s: broken flags: %v", at, err)
	}
	for s := 0; s < m.slots; s++ {
		if writes[s] != m.writes[s] || broken[s] != m.broken[s] {
			t.Fatalf("%s: image slot %d has %d writes, broken %v; model %d, %v",
				at, s, writes[s], broken[s], m.writes[s], m.broken[s])
		}
	}
	matchWearReads(t, at, d, m)
	pages := img.Data
	img.Data, img.Writes, img.Broken = nil, nil, nil
	if !reflect.DeepEqual(img, want) {
		got, exp := reflect.ValueOf(*img), reflect.ValueOf(*want)
		for i := range got.NumField() {
			if !reflect.DeepEqual(got.Field(i).Interface(), exp.Field(i).Interface()) {
				t.Fatalf("%s: image field %s is %v, model %v", at, got.Type().Field(i).Name,
					got.Field(i).Interface(), exp.Field(i).Interface())
			}
		}
	}
	if m.data != nil {
		for s := 0; s < m.slots; s++ {
			got := make([]byte, failmap.LineSize)
			lineStore(pages).read(s, got)
			if want := m.contents(s); !bytes.Equal(got, want) {
				t.Fatalf("%s: slot %d holds %x, model %x", at, s, got[:8], want[:8])
			}
		}
	}
	fm := d.FailMap()
	var word uint64
	for l := 0; l < m.lines; l++ {
		if l%failmap.LinesPerPage == 0 {
			word = d.UnavailablePage(l / failmap.LinesPerPage)
		}
		want := m.unavailable(l)
		if fm.LineFailed(l) != want || word>>(l%failmap.LinesPerPage)&1 == 1 != want || d.Unavailable(l) != want {
			t.Fatalf("%s: line %d failure map %v, page word %#x, Unavailable %v; model %v",
				at, l, fm.LineFailed(l), word, d.Unavailable(l), want)
		}
	}
	if p, i, dr := d.BufferAccounting(); p != m.pushed || i != m.invalidated || dr != m.drained ||
		d.Stalled() != m.stalled || d.BufferLen() != len(m.buffer) {
		t.Fatalf("%s: buffer %d pushed %d invalidated %d drained, stalled %v; model %d %d %d, %v",
			at, p, i, dr, d.Stalled(), m.pushed, m.invalidated, m.drained, m.stalled)
	}
	for e := stats.Event(0); e < stats.Event(stats.NumEvents); e++ {
		if clock.Count(e) != m.counts[e] {
			t.Fatalf("%s: %d %v events charged, model %d", at, clock.Count(e), e, m.counts[e])
		}
	}
	if !slices.Equal(log, m.interrupts) {
		t.Fatalf("%s: interrupts %v, model %v", at, log, m.interrupts)
	}
}

// matchWearReads fails the test where TotalWrites, WearHistogram or
// PageWrites, which walk the device's resident wear chunks, differ from the
// model's sums over every slot. PageWrites is left out under clustering,
// where it reads each line's slot through the map cache and so charges the
// clock.
func matchWearReads(t *testing.T, at string, d *Device, m *model) {
	t.Helper()
	const bins = 5
	var total, top uint64
	for s := 0; s < m.slots; s++ {
		total, top = total+m.writes[s], max(top, m.writes[s])
	}
	width := top/bins + 1 // ceil((top+1)/bins)
	hist := make([]WearBucket, bins)
	for i := range hist {
		hist[i].Lo, hist[i].Hi = uint64(i)*width, uint64(i+1)*width
	}
	for s := 0; s < m.slots; s++ {
		hist[m.writes[s]/width].Slots++
		if m.broken[s] {
			hist[m.writes[s]/width].Failed++
		}
	}
	if got := d.TotalWrites(); got != total {
		t.Fatalf("%s: TotalWrites %d, model %d", at, got, total)
	}
	if got := d.WearHistogram(bins); !slices.Equal(got, hist) {
		t.Fatalf("%s: WearHistogram %v, model %v", at, got, hist)
	}
	if m.regions != nil {
		return
	}
	pages := make([]uint64, m.lines/failmap.LinesPerPage)
	for l := 0; l < m.lines; l++ {
		s := l
		if m.perm != nil {
			s = m.perm[l]
		}
		pages[l/failmap.LinesPerPage] += m.writes[s]
	}
	if got := d.PageWrites(); !slices.Equal(got, pages) {
		t.Fatalf("%s: PageWrites %v, model %v", at, got, pages)
	}
}

// expandChunks is the per-slot array of slots slots an image's chunks
// carry, written apart from the device's store: each chunk enduranceChunk
// slots, the last one what is left, and an empty chunk zeros.
func expandChunks[T any](chunks [][]T, slots int) ([]T, error) {
	var out []T
	for i, c := range chunks {
		n := min(enduranceChunk, slots-len(out))
		switch {
		case n <= 0:
			return nil, fmt.Errorf("chunk %d past the last of %d slots", i, slots)
		case len(c) == 0:
			out = append(out, make([]T, n)...)
		case len(c) == n:
			out = append(out, c...)
		default:
			return nil, fmt.Errorf("chunk %d holds %d slots, want 0 or %d", i, len(c), n)
		}
	}
	if len(out) != slots {
		return nil, fmt.Errorf("%d chunks cover %d of %d slots", len(chunks), len(out), slots)
	}
	return out, nil
}

// modelSeeds is the corpus: a mixed history on every corner, and histories
// aimed at what a corner alone can reach — a clustering metadata line worn
// out after the OS drained its reservation, a repeated write that would
// reach the endurance, more clustered regions than the map cache holds,
// orphans restored and read, and the gap's own carries wearing out.
func modelSeeds() [][]byte {
	var seeds [][]byte
	enc := func(line int) []byte {
		if line < 0x80 {
			return []byte{byte(line)}
		}
		return []byte{0x80 | byte(line>>8), byte(line)}
	}
	seed := func(shape, wear byte, ops ...[]byte) {
		seeds = append(seeds, slices.Concat(append([][]byte{{shape, wear}}, ops...)...))
	}
	write := func(line, k int, v byte) []byte {
		return slices.Concat([]byte{opWrite}, enc(line), []byte{byte(k - 1), v})
	}
	run := func(v byte, lines ...int) []byte {
		out := []byte{opWriteRun, byte(len(lines) - 1)}
		for _, l := range lines {
			out = append(out, enc(l)...)
		}
		return append(out, v)
	}
	repeat := func(line, n int, v byte) []byte {
		return slices.Concat([]byte{opWriteRepeat}, enc(line), []byte{byte(n - 1), v})
	}
	drain := func(k int) []byte { return []byte{opDrain, byte(k - 1)} }
	force := func(line int, v byte) []byte { return slices.Concat([]byte{opForceFail}, enc(line), []byte{v}) }
	restore := []byte{opRestore}
	read := func(line int) []byte { return slices.Concat([]byte{opRead}, enc(line)) }

	// A mixed history on each of the 56 corners, at endurance 4-6 (shapes
	// 14-27 and 42-55 repeat the corners below them).
	for shape := byte(0); shape < 56; shape++ {
		seed(shape, shape%2,
			write(3, 8, 1), write(3, 8, 2), run(3, 1, 2, 3, 70, 700, 1400), drain(64),
			repeat(9, 3, 4), repeat(9, 40, 5), force(200, 7), read(200), read(3),
			write(0, 8, 6), write(1, 8, 6), restore, read(200), drain(2), write(5, 8, 8),
			run(9, 5, 6, 7, 8, 9, 10, 11, 12), drain(64), restore, write(1500, 8, 10), read(1500))
	}
	// Clustering (2-page regions), endurance 4: line 40 fails, metadata lines
	// 0 and 1 are installed, the OS drains, and writes wear line 0 out.
	seed(5+28, 0, force(40, 1), read(0), read(2), drain(3), write(0, 8, 2), write(0, 8, 3), write(0, 8, 4), read(0),
		write(1, 8, 5), write(1, 8, 6), restore, write(0, 8, 7))
	// No leveling, endurance 4-32: repeated writes short of and past it.
	for wear := byte(0); wear < 15; wear += 7 {
		seed(28, wear, repeat(9, 2, 1), repeat(9, 80, 2), write(9, 1, 3), repeat(9, 3, 4), repeat(9, 30, 5),
			force(10, 1), repeat(10, 5, 6), drain(1), repeat(11, 80, 7))
	}
	// 1-page clustering: a failure in each of 20 pages installs 20 maps,
	// then two passes of reads and writes over them cycle the 16-entry cache.
	var ops [][]byte
	for p := 0; p < 20; p++ {
		ops = append(ops, force(p*failmap.LinesPerPage+10, byte(p)|1))
	}
	ops = append(ops, drain(64))
	for pass := 0; pass < 2; pass++ {
		for p := 0; p < 20; p++ {
			ops = append(ops, read(p*failmap.LinesPerPage+20), write(p*failmap.LinesPerPage+20, 1, byte(p)))
		}
		ops = append(ops, read(30), read(30), write(64+30, 2, 9), drain(64))
	}
	for pass := 0; pass < 2; pass++ { // sixteen regions: the second pass hits
		for p := 0; p < 16; p++ {
			ops = append(ops, read(p*failmap.LinesPerPage+21))
		}
	}
	seed(4+28, 15, ops...)
	seed(4+7, 3, ops...)
	// Orphans: failures pending at the cut come back torn and stall a tiny
	// buffer; reads forward the torn data until drained, and one drain below
	// the watermark lets writes through again.
	for _, shape := range []byte{0 + 7 + 28, 1 + 7 + 28, 5 + 7 + 28} {
		seed(shape, 15, write(20, 1, 1), force(20, 3), force(21, 5), force(700, 7), restore, read(20),
			write(22, 1, 1), drain(1), read(20), restore, drain(64), read(20), write(22, 1, 2),
			force(30, 1), force(31, 3), force(32, 5), force(33, 7), write(22, 1, 3), drain(1), write(22, 1, 4))
	}
	// Endurance 20, contents tracked: a line written 32 times fails, is
	// drained and written again, with and without leveling.
	for _, shape := range []byte{0 + 14 + 28, 3 + 14 + 28} {
		seed(shape, 8, write(3, 8, 1), write(3, 8, 2), write(3, 8, 3), write(3, 8, 4), read(3), drain(64),
			write(3, 8, 5), read(3))
	}
	// Start-gap ψ ∈ {1, 7, 3}, endurance 4, contents tracked: the gap's
	// carries wear slots out, relocated lines fail and fail again.
	for _, shape := range []byte{1 + 28, 3 + 28, 2 + 7 + 28} {
		var ops [][]byte
		for i := 0; i < 40; i++ {
			ops = append(ops, write(i%3, 8, byte(i)), run(byte(i), 0, 1, 2, 3), drain(64))
		}
		seed(shape, 0, append(ops, restore, read(0), read(1), read(2))...)
	}
	// Start-gap ψ=1 at infinite endurance with nobody draining: line 400
	// fails, the gap carries it onto working storage 112 writes later, and
	// its second failure retires the entry its first one parked.
	ops = [][]byte{force(400, 1)}
	for i := 0; i < 20; i++ {
		ops = append(ops, write(5, 8, byte(i)))
	}
	seed(1+28, 15, append(ops, read(400), force(400, 3), force(400, 5), read(400), drain(64),
		force(300, 0), force(300, 2), read(300), drain(64))...)
	// Start-gap ψ=1 at infinite endurance: the gap wraps from slot 0 to the
	// top every 513 writes.
	ops = nil
	for i := 0; i < 40; i++ {
		ops = append(ops, run(byte(i), 0, 1, 2, 3, 4, 5, 6, 7, 64, 65, 66, 67, 400, 401, 402, 511))
	}
	seed(1+28, 15, append(ops, read(0), read(511), restore, read(7))...)
	// Past the first wear chunk, endurance 4-6, contents tracked: slots
	// 4095 and 4096 on either side of the chunk edge wear out, are forced,
	// restored and read, with no leveling and on 2-page clustering.
	for _, shape := range []byte{56 + 28, 56 + 5 + 28} {
		seed(shape, 1, write(4095, 3, 1), write(4096, 3, 2), run(3, 4095, 4096, 4097, 4607), read(4095), read(4096),
			restore, read(4096), write(4095, 8, 4), write(4096, 8, 5), drain(64), force(4094, 6), force(4100, 7),
			restore, read(4094), read(4100), drain(64), repeat(4097, 2, 8), read(4097))
	}
	// Start-gap ψ=1 on 64 pages, endurance 4: the first gap move carries
	// line 4095 into the spare slot 4096, a chunk of one slot, which its
	// writes then wear out.
	seed(56+1+28, 0, write(4095, 3, 1), read(4095), restore, write(4095, 8, 2), drain(64), read(4095),
		run(3, 4094, 4095, 0, 1), restore, read(4094), read(4095))
	return seeds
}
