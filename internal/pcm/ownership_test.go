package pcm

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"wearmem/internal/failmap"
)

// TestSingleOwnerMatchesConcurrent: equipping a device changes nothing a
// single goroutine can observe. The histories of
// TestWriteRunMatchesWriteProperty, played into a plain device and into one
// that SetConcurrent has equipped, return the same (n, err) from every
// WriteRun and leave the same image, buffer accounting, simulated cycles,
// interrupt count and read-back — the handler-drained scenarios hold the
// callback queue to running after the critical section in both modes.
func TestSingleOwnerMatchesConcurrent(t *testing.T) {
	type ret struct {
		n   int
		err error
	}
	recording := func(log *[]ret) func(*Device, []int, []byte) (int, error) {
		return func(d *Device, run []int, data []byte) (int, error) {
			n, err := d.WriteRun(run, data)
			*log = append(*log, ret{n, err})
			return n, err
		}
	}
	for _, sc := range deviceScenarios {
		for seed := int64(1); seed <= 4; seed++ {
			sc.cfg.Seed = seed
			blocks := scenarioBlocks(sc.cfg, seed)
			var ownedRets, sharedRets []ret
			owned := driveScenario(t, sc, blocks, false, recording(&ownedRets))
			shared := driveScenario(t, sc, blocks, true, recording(&sharedRets))
			if !reflect.DeepEqual(ownedRets, sharedRets) {
				t.Fatalf("%s seed %d: WriteRun returned differently once equipped", sc.name, seed)
			}
			if !reflect.DeepEqual(owned, shared) {
				t.Fatalf("%s seed %d: the equipped device diverged from the single-owner one\n %s",
					sc.name, seed, owned.diverged(shared))
			}
			owned.reached(t, sc, seed)
		}
	}
}

// TestConcurrentDeviceHammer shares one equipped, fast-wearing device
// between four writers on the same lines, a drainer and a status poller
// (run it under -race), then checks what only mutual exclusion keeps true:
// no write's wear was lost, every buffer entry is accounted for, and every
// failure interrupt was delivered exactly once.
func TestConcurrentDeviceHammer(t *testing.T) {
	const writers, runs, runLen, bufferCap = 4, 2500, 8, 16
	d := NewDevice(Config{
		Size: 4 * failmap.PageSize, Endurance: 150, Variation: 0.4, Seed: 5,
		WearLeveling: StartGap, GapInterval: 3, BufferCap: bufferCap, BufferReserve: 4, TrackData: true,
	}, nil)
	d.SetConcurrent()
	var interrupts, applied, stalls atomic.Uint64
	d.OnFailure(func() { interrupts.Add(1) })

	var stop atomic.Bool
	var helpers, writing sync.WaitGroup
	helpers.Add(2)
	go func() { // the OS side: drain whatever is parked
		defer helpers.Done()
		for !stop.Load() {
			if _, ok := d.Drain(); !ok {
				runtime.Gosched()
			}
		}
	}()
	go func() { // a poller on the lock-free status words
		defer helpers.Done()
		lastFailed := 0
		for !stop.Load() {
			if n := d.BufferLen(); n < 0 || n > bufferCap {
				t.Errorf("BufferLen() = %d outside the buffer", n)
				return
			}
			failed := d.FailedLines()
			if failed < lastFailed {
				t.Errorf("FailedLines() went back: %d after %d", failed, lastFailed)
				return
			}
			lastFailed = failed
			_ = d.Stalled()
			runtime.Gosched()
		}
	}()
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			buf := make([]byte, failmap.LineSize)
			run := make([]int, runLen)
			for i := 0; i < runs; i++ {
				for j := range run {
					run[j] = rng.Intn(d.Lines()) // every writer draws from the whole module
				}
				rng.Read(buf)
				n, err := d.WriteRun(run, buf)
				applied.Add(uint64(n))
				if err != nil {
					stalls.Add(1)
					runtime.Gosched() // refused: give the drainer the processor
				}
			}
		}(w)
	}
	writing.Wait()
	stop.Store(true)
	helpers.Wait()

	if got, want := d.TotalWrites(), applied.Load()+d.GapCarries(); got != want {
		t.Errorf("TotalWrites() = %d, WriteRun applied %d + %d gap carries = %d",
			got, applied.Load(), d.GapCarries(), want)
	}
	pushed, invalidated, drained := d.BufferAccounting()
	if got, want := d.BufferLen(), int(pushed-invalidated-drained); got != want {
		t.Errorf("BufferLen() = %d, accounting says %d - %d - %d", got, pushed, invalidated, drained)
	}
	if interrupts.Load() != pushed {
		t.Errorf("%d failure interrupts for %d buffer entries", interrupts.Load(), pushed)
	}
	if pushed == 0 || drained == 0 || d.GapCarries() == 0 {
		t.Errorf("nothing exercised: pushed=%d drained=%d carries=%d stalls=%d",
			pushed, drained, d.GapCarries(), stalls.Load())
	}
}

// BenchmarkDeviceWrite is what one write-through store pays the device: a
// Write of one line to a 4 MB module that holds contents and never wears
// out. single-owner against concurrent is the price of the lock;
// concurrent-parallel at -cpu 1,2 shows an equipped device still excludes.
func BenchmarkDeviceWrite(b *testing.B) {
	device := func(equip bool) *Device {
		d := NewDevice(Config{Size: 4 << 20, Endurance: 1 << 40, TrackData: true}, nil)
		if equip {
			d.SetConcurrent()
		}
		return d
	}
	buf := make([]byte, failmap.LineSize)
	serial := func(d *Device) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := d.Write(i%d.Lines(), buf); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("single-owner", serial(device(false)))
	b.Run("concurrent", serial(device(true)))
	b.Run("concurrent-parallel", func(b *testing.B) {
		d := device(true)
		var next atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := d.Write(int(next.Add(1))%d.Lines(), buf); err != nil {
					b.Error(err)
					return
				}
			}
		})
		if got := d.TotalWrites(); got != uint64(b.N) {
			b.Fatalf("%d writes counted for %d made", got, b.N)
		}
	})
}
