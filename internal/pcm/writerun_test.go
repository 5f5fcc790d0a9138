package pcm

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/stats"
)

func drainAll(d *Device) {
	for d.BufferLen() > 0 {
		d.Drain()
	}
}

// TestWriteRunStopRule walks one run through a failure, the watermark and a
// drain: the run ends after each write that leaves the buffer non-empty, a
// stalled module refuses the next write without wearing anything, and every
// failing write raises its interrupts exactly once.
func TestWriteRunStopRule(t *testing.T) {
	// Endurance 3, no variation: a line fails on its third write. Watermark 2.
	d := NewDevice(Config{Size: failmap.PageSize, Endurance: 3, BufferCap: 4, BufferReserve: 2}, nil)
	var interrupts, fulls int
	d.OnFailure(func() { interrupts++ })
	d.OnBufferFull(func() { fulls++ })
	lines := []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 3}
	buf := make([]byte, failmap.LineSize)

	step := func(wantN int, wantErr error, wantLen, wantInterrupts, wantFulls int) {
		t.Helper()
		before := d.TotalWrites()
		n, err := d.WriteRun(lines, buf)
		if n != wantN || !errors.Is(err, wantErr) {
			t.Fatalf("WriteRun = %d, %v; want %d, %v", n, err, wantN, wantErr)
		}
		if got := d.TotalWrites() - before; got != uint64(n) {
			t.Fatalf("run of %d wore %d writes", n, got)
		}
		if d.BufferLen() != wantLen || interrupts != wantInterrupts || fulls != wantFulls {
			t.Fatalf("buffer=%d interrupts=%d fulls=%d, want %d/%d/%d",
				d.BufferLen(), interrupts, fulls, wantLen, wantInterrupts, wantFulls)
		}
		lines = lines[n:]
	}
	step(7, nil, 1, 1, 0) // six healthy writes, then line 0 fails
	step(1, nil, 2, 2, 1) // buffer already non-empty: one write, line 1 fails, watermark
	step(0, ErrStalled, 2, 2, 1)
	d.Drain()
	step(1, nil, 2, 3, 2) // line 2 fails straight back to the watermark
	drainAll(d)
	step(1, nil, 0, 3, 2) // line 3: healthy, run exhausted
	if len(lines) != 0 {
		t.Fatalf("%d lines left over", len(lines))
	}
}

// runBlock is one WriteRun's worth of traffic: the lines share one payload.
type runBlock struct {
	lines []int
	data  []byte
}

// How a deviceScenario's driver empties the failure buffer.
const (
	drainOnStall = iota // nobody drains until a write is refused
	drainEager          // the driver empties the buffer after every failure
	drainHandler        // the OnFailure handler empties it, as the kernel does
)

// deviceScenario is one device configuration and drain discipline that
// scenarioBlocks and driveScenario turn into a reproducible history.
type deviceScenario struct {
	name  string
	cfg   Config
	drain int
}

var deviceScenarios = []deviceScenario{
	{"start-gap gap-move failures", Config{Size: 2 * failmap.PageSize, Endurance: 12, Variation: 0.3,
		WearLeveling: StartGap, GapInterval: 2, TrackData: true}, drainEager},
	{"clustering fake entries", Config{Size: 4 * failmap.PageSize, Endurance: 10, Variation: 0.2,
		ClusterPages: 2, BufferCap: 64, TrackData: true}, drainEager},
	{"handler drains", Config{Size: 2 * failmap.PageSize, Endurance: 10, Variation: 0.3,
		TrackData: true}, drainHandler},
	{"start-gap handler drains", Config{Size: 2 * failmap.PageSize, Endurance: 12, Variation: 0.3,
		WearLeveling: StartGap, GapInterval: 3}, drainHandler},
	// What tab2 runs: the gap moves on every write, over contents nobody keeps.
	{"tab2 start-gap", Config{Size: 2 * failmap.PageSize, Endurance: 60, Variation: 0.15,
		WearLeveling: StartGap, GapInterval: 1}, drainEager},
	{"start-gap wraps over contents", Config{Size: failmap.PageSize, Endurance: 200, Variation: 0.3,
		WearLeveling: StartGap, GapInterval: 7, TrackData: true}, drainEager},
	{"stalls mid-sequence", Config{Size: 2 * failmap.PageSize, Endurance: 8, Variation: 0.3,
		BufferCap: 8, BufferReserve: 4, TrackData: true}, drainOnStall},
	{"clustering stalls", Config{Size: 4 * failmap.PageSize, Endurance: 8, Variation: 0.2,
		ClusterPages: 2, BufferCap: 8, BufferReserve: 3, TrackData: true}, drainOnStall},
}

// scenarioBlocks draws the op stream of one seed: about 6000 writes in
// blocks of 1 to 60 random lines.
func scenarioBlocks(cfg Config, seed int64) []runBlock {
	rng := rand.New(rand.NewSource(seed * 977))
	lines := cfg.Size / failmap.LineSize
	var blocks []runBlock
	for total := 0; total < 6000; {
		b := runBlock{lines: make([]int, 1+rng.Intn(60)), data: make([]byte, failmap.LineSize)}
		for i := range b.lines {
			b.lines[i] = rng.Intn(lines)
		}
		rng.Read(b.data)
		blocks = append(blocks, b)
		total += len(b.lines)
	}
	return blocks
}

// deviceOutcome is everything a history leaves behind that software or a
// power cut could observe.
type deviceOutcome struct {
	image                       *DeviceImage
	pushed, invalidated, drains uint64
	cycles                      stats.Cycles
	applied, stalls, interrupts int
	reads                       []byte
}

// driveScenario plays blocks into a fresh device built from sc.cfg —
// equipped with its lock first when concurrent is set — draining as sc
// says. write is the entry point under test: it applies run, lines software
// has been told are gone included, and reports how far it got.
func driveScenario(t *testing.T, sc deviceScenario, blocks []runBlock, concurrent bool,
	write func(d *Device, run []int, data []byte) (int, error)) deviceOutcome {
	t.Helper()
	clock := stats.NewClock(stats.DefaultCosts())
	d := NewDevice(sc.cfg, clock)
	if concurrent {
		d.SetConcurrent()
	}
	var o deviceOutcome
	if sc.drain == drainHandler {
		d.OnFailure(func() { o.interrupts++; drainAll(d) })
	} else {
		d.OnFailure(func() { o.interrupts++ })
	}
	for _, b := range blocks {
		next := b.lines
		for len(next) > 0 {
			n, err := write(d, next, b.data)
			next = next[n:]
			o.applied += n
			if err != nil {
				if !errors.Is(err, ErrStalled) {
					t.Fatalf("%s: %v", sc.name, err)
				}
				o.stalls++
				drainAll(d)
			}
			if sc.drain == drainEager {
				drainAll(d)
			}
		}
	}
	o.image = d.Snapshot()
	o.pushed, o.invalidated, o.drains = d.BufferAccounting()
	o.cycles = clock.Now()
	o.reads = make([]byte, d.Size())
	for l := 0; l < d.Lines(); l++ {
		d.Read(l, o.reads[l*failmap.LineSize:(l+1)*failmap.LineSize])
	}
	return o
}

// diverged says where two outcomes that are not DeepEqual differ.
func (o deviceOutcome) diverged(p deviceOutcome) string {
	return fmt.Sprintf("applied %d vs %d, stalls %d vs %d, interrupts %d vs %d, pushed %d vs %d, cycles %d vs %d, images equal: %v",
		o.applied, p.applied, o.stalls, p.stalls, o.interrupts, p.interrupts,
		o.pushed, p.pushed, o.cycles, p.cycles, reflect.DeepEqual(o.image, p.image))
}

// reached fails the test when a history never got to the case its scenario
// is named for.
func (o deviceOutcome) reached(t *testing.T, sc deviceScenario, seed int64) {
	t.Helper()
	if o.image.FailedLines == 0 || (sc.drain == drainOnStall && o.stalls == 0) {
		t.Fatalf("%s seed %d: scenario never reached its case (failed=%d stalls=%d)",
			sc.name, seed, o.image.FailedLines, o.stalls)
	}
	if sc.cfg.WearLeveling != StartGap {
		return
	}
	// The gap starts in the spare top slot and moves down one slot per
	// GapInterval writes, wrapping from slot 0 back to the top.
	slots, moves := sc.cfg.Size/failmap.LineSize+1, o.applied/sc.cfg.GapInterval
	if moves < 2*slots {
		t.Fatalf("%s seed %d: the gap cursor wrapped fewer than twice (%d moves)", sc.name, seed, moves)
	}
	if want := (slots - 1 - moves%slots + slots) % slots; int(o.image.Gap) != want {
		t.Fatalf("%s seed %d: gap in slot %d after %d moves over %d slots, want %d",
			sc.name, seed, o.image.Gap, moves, slots, want)
	}
}

// TestWriteRunMatchesWriteProperty: a sequence of writes leaves the device in
// the same state — durable image, buffer accounting, simulated cycles,
// interrupts delivered — whether it goes through WriteRun with
// drain-and-resume or through Write one line at a time.
func TestWriteRunMatchesWriteProperty(t *testing.T) {
	oneWrite := func(d *Device, run []int, data []byte) (int, error) {
		if err := d.Write(run[0], data); err != nil {
			return 0, err
		}
		return 1, nil
	}
	for _, sc := range deviceScenarios {
		for seed := int64(1); seed <= 8; seed++ {
			sc.cfg.Seed = seed
			blocks := scenarioBlocks(sc.cfg, seed)
			ref := driveScenario(t, sc, blocks, false, oneWrite)
			got := driveScenario(t, sc, blocks, false, (*Device).WriteRun)
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("%s seed %d: WriteRun diverged from Write\n %s", sc.name, seed, ref.diverged(got))
			}
			ref.reached(t, sc, seed)
		}
	}
}

// TestLockFreeStatusReads: the status getters load atomics without the
// device lock, so they must be race-free against a writer/drainer (run
// under -race by make race-threaded) and exact once the writer is quiet.
func TestLockFreeStatusReads(t *testing.T) {
	d := NewDevice(Config{
		Size: 4 * failmap.PageSize, Endurance: 6, Variation: 0.3, Seed: 3,
		WearLeveling: StartGap, GapInterval: 2, BufferCap: 16, BufferReserve: 4,
	}, nil)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastFailed := 0
			for !stop.Load() {
				n, failed := d.BufferLen(), d.FailedLines()
				if n < 0 || n > 16 {
					t.Errorf("BufferLen() = %d outside the buffer", n)
					return
				}
				if failed < lastFailed {
					t.Errorf("FailedLines() went back: %d after %d", failed, lastFailed)
					return
				}
				lastFailed = failed
				if r := d.FailureRate(); r < 0 || r > 1.01 {
					t.Errorf("FailureRate() = %v", r)
					return
				}
				_ = d.Stalled()
			}
		}()
	}
	traffic, rng := NewTraffic(9), rand.New(rand.NewSource(9))
	buf := make([]byte, failmap.LineSize)
	block := make([]int, 64)
	for i := 0; i < 400; i++ {
		d.SkewedLines(traffic, block)
		for next := block; len(next) > 0; {
			n, err := d.WriteRun(next, buf)
			next = next[n:]
			if err != nil || rng.Intn(3) == 0 {
				d.Drain()
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	pushed, invalidated, drained := d.BufferAccounting()
	if got, want := d.BufferLen(), int(pushed-invalidated-drained); got != want {
		t.Fatalf("BufferLen() = %d at quiescence, accounting says %d", got, want)
	}
	if pushed == 0 || drained == 0 {
		t.Fatalf("nothing exercised: pushed=%d drained=%d", pushed, drained)
	}
	if d.Stalled() != (d.BufferLen() >= d.Watermark()) {
		t.Fatalf("Stalled()=%v with %d buffered, watermark %d", d.Stalled(), d.BufferLen(), d.Watermark())
	}
}

// wearBenchDevice is Tab2's no-leveling template before any line fails:
// the per-write cost of the wear loop, not of failure handling.
func wearBenchDevice() (*Device, []int) {
	d := NewDevice(Config{Size: 512 * failmap.PageSize, Endurance: 1 << 40, Seed: 1}, nil)
	lines := make([]int, 512)
	d.SkewedLines(NewTraffic(1), lines)
	return d, lines
}

// BenchmarkDeviceWritePolled is one op = 512 writes polled the way the wear
// loops did before WriteRun: Write, then FailureRate and BufferLen, per line.
func BenchmarkDeviceWritePolled(b *testing.B) {
	d, lines := wearBenchDevice()
	buf := make([]byte, failmap.LineSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range lines {
			if d.FailureRate() >= 1 {
				b.Fatal("unreachable")
			}
			if err := d.Write(l, buf); err != nil {
				b.Fatal(err)
			}
			for d.BufferLen() > 0 {
				d.Drain()
			}
		}
	}
}

// BenchmarkDeviceWriteRun is the same 512 writes as one run.
func BenchmarkDeviceWriteRun(b *testing.B) {
	d, lines := wearBenchDevice()
	buf := make([]byte, failmap.LineSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.FailureRate() >= 1 {
			b.Fatal("unreachable")
		}
		if n, err := d.WriteRun(lines, buf); n != len(lines) || err != nil {
			b.Fatalf("WriteRun = %d, %v", n, err)
		}
		for d.BufferLen() > 0 {
			d.Drain()
		}
	}
}
