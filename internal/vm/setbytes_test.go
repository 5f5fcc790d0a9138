package vm

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/heap"
	"wearmem/internal/kernel"
	"wearmem/internal/pcm"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
)

// bytesCase is one SetArrayBytes differential case: the device and kernel
// the twins boot on, the range the fill covers, how many times it runs,
// and what is done to the device first.
type bytesCase struct {
	name      string
	dev       pcm.Config // Size, TrackData and Probe are filled in
	policy    string
	noWT      bool
	blobLen   int
	start, n  int // the filled range; n = 0 means to the end of the blob
	fills     int // 0 means 1
	prep      func(tw *bytesTwin)
	wantFails bool // the fills must fail lines, or the case says nothing
}

// bytesTwin is one of the two machines a case runs on.
type bytesTwin struct {
	t      *testing.T
	tv     *testVM
	dev    *pcm.Device
	kern   *kernel.Kernel
	clock  *stats.Clock
	probes []string
	blob   heap.Addr // rooted
}

func newBytesTwin(t *testing.T, c bytesCase, threaded bool) *bytesTwin {
	t.Helper()
	const heapBytes = 1 << 20
	poolPages := 4 * heapBytes / failmap.PageSize
	tw := &bytesTwin{t: t, clock: stats.NewClock(stats.DefaultCosts())}
	hook := func(p probe.Point, a uint64) { tw.probes = append(tw.probes, fmt.Sprintf("%v@%#x", p, a)) }
	dc := c.dev
	dc.Size, dc.TrackData, dc.Probe = poolPages*failmap.PageSize, true, hook
	tw.dev = pcm.NewDevice(dc, tw.clock)
	tw.kern = kernel.New(kernel.Config{
		PCMPages: poolPages, Device: tw.dev, Clock: tw.clock, Probe: hook, Policy: c.policy,
	})
	v := New(Config{
		HeapBytes:    heapBytes,
		Collector:    StickyImmix,
		FailureAware: true,
		Kernel:       tw.kern,
		Clock:        tw.clock,
		Probe:        hook,
		WriteThrough: !c.noWT,
		StrictRemap:  true,
		Threaded:     threaded,
	})
	tw.tv = &testVM{VM: v}
	tw.tv.blob = v.RegisterType(&heap.Type{Name: "blob", Kind: heap.KindScalarArray, ElemSize: 1})
	v.AddRoot(&tw.blob)
	tw.blob = v.MustNewArray(tw.tv.blob, c.blobLen)
	return tw
}

// line returns the device line behind byte i of the blob.
func (tw *bytesTwin) line(i int) int {
	return physicalLineOf(tw.t, tw.kern, tw.tv.VM, tw.blob+heap.ArrayHeaderSize+heap.Addr(i))
}

// detached runs f with the device's interrupts unwired, so a failure it
// causes stays in the buffer and out of the runtime's sight.
func (tw *bytesTwin) detached(f func()) {
	tw.dev.OnFailure(nil)
	tw.dev.OnBufferFull(nil)
	f()
	tw.dev.OnFailure(tw.kern.ServiceDevice)
	tw.dev.OnBufferFull(tw.kern.ServiceDevice)
}

// wearTo brings the line behind byte i of the blob to total writes,
// writing the device directly with the interrupts unwired.
func (tw *bytesTwin) wearTo(i int, total uint64) {
	l := tw.line(i)
	data := make([]byte, failmap.LineSize)
	tw.detached(func() {
		for w := tw.dev.WriteCount(l); w < total; w++ {
			if err := tw.dev.Write(l, data); err != nil {
				tw.t.Fatalf("wearing line %d: %v", l, err)
			}
		}
	})
}

// fill runs the case's fills, through SetArrayBytes when batched and
// through a SetArrayByte loop otherwise: on the VM's own entry points on
// the baton engine, on a mutator inside RunMutators on the threaded one.
func (tw *bytesTwin) fill(c bytesCase, batched bool) {
	n := c.n
	if n == 0 {
		n = c.blobLen - c.start
	}
	src := make([]byte, n)
	store := func(api interface {
		SetArrayByte(heap.Addr, int, byte)
		SetArrayBytes(heap.Addr, int, []byte)
	}) {
		for f := range max(c.fills, 1) {
			for j := range src {
				src[j] = byte(31*f + 7*j)
			}
			if batched {
				api.SetArrayBytes(tw.blob, c.start, src)
				continue
			}
			for j, b := range src {
				api.SetArrayByte(tw.blob, c.start+j, b)
			}
		}
	}
	if !tw.tv.Threaded() {
		store(tw.tv.VM)
		return
	}
	if err := tw.tv.RunMutators(1, func(m *Mutator, _ func()) error { store(m); return nil }); err != nil {
		tw.t.Fatal(err)
	}
}

// storm fails unmapped top-of-module lines, interrupts unwired, until the
// device stalls at its watermark.
func storm(tw *bytesTwin) {
	tw.detached(func() {
		for l := tw.dev.Lines() - 1; !tw.dev.Stalled(); l-- {
			tw.dev.ForceFail(l, nil)
		}
	})
}

func bytesCases() []bytesCase {
	const endurance = 400
	exact := pcm.Config{Endurance: endurance}
	worn := pcm.Config{Endurance: 150, Variation: 0.2, Seed: 3}
	cases := []bytesCase{
		{name: "fresh", blobLen: 12000},
		{name: "long-lived", dev: pcm.Config{Endurance: 1 << 20}, blobLen: 12000, fills: 3},
		{name: "mid-line range", dev: exact, blobLen: 700, start: 3, n: 690, fills: 2},
		{name: "write-through off", noWT: true, dev: worn, blobLen: 700, start: 5, n: 600, fills: 3},
		{name: "broken line", blobLen: 700, prep: func(tw *bytesTwin) {
			tw.detached(func() { tw.dev.ForceFail(tw.line(300), nil) })
		}},
		{name: "stalled", dev: pcm.Config{BufferCap: 24, BufferReserve: 4}, blobLen: 12000, prep: storm},
		{name: "worn", dev: worn, blobLen: 12000, fills: 3, wantFails: true},
		{name: "start-gap", dev: pcm.Config{Endurance: 150, Variation: 0.2, Seed: 3, WearLeveling: pcm.StartGap, GapInterval: 7},
			blobLen: 12000, fills: 3, wantFails: true},
		{name: "clustering", dev: pcm.Config{Endurance: 150, Variation: 0.2, Seed: 3, ClusterPages: 2},
			blobLen: 12000, fills: 3, wantFails: true},
	}
	// The line holding byte 300 sits r writes short of its endurance: the
	// run of stores it receives reaches the endurance when r <= the run.
	for _, r := range []uint64{0, 1, 63, 64, 65} {
		cases = append(cases, bytesCase{
			name: fmt.Sprintf("endurance-%d", r), dev: exact, blobLen: 700,
			prep: func(tw *bytesTwin) { tw.wearTo(300, endurance-r) }, wantFails: r <= 64,
		})
	}
	for _, pol := range []string{"rotate", "decoder", "migrate"} {
		cases = append(cases, bytesCase{name: "remap " + pol, policy: pol, dev: worn, blobLen: 12000, fills: 3})
	}
	return cases
}

// TestSetArrayBytesMatchesPerByte holds SetArrayBytes to a loop of
// SetArrayByte on twin machines, on both engines: whatever the device
// state, policy or range, the two must leave the same device image, clock,
// heap bytes, failure table, recovery state and probe sequence.
func TestSetArrayBytesMatchesPerByte(t *testing.T) {
	for _, threaded := range []bool{false, true} {
		for _, c := range bytesCases() {
			t.Run(fmt.Sprintf("threaded=%v/%s", threaded, c.name), func(t *testing.T) {
				var twins [2]*bytesTwin
				for k := range twins {
					tw := newBytesTwin(t, c, threaded)
					if c.prep != nil {
						c.prep(tw)
					}
					tw.fill(c, k == 1)
					twins[k] = tw
				}
				a, b := twins[0], twins[1]
				if c.wantFails && b.dev.FailedLines() == 0 {
					t.Fatal("no line failed: the case does not reach the per-byte fallback")
				}
				if !reflect.DeepEqual(a.dev.Snapshot(), b.dev.Snapshot()) {
					t.Error("device images differ")
				}
				if !slices.Equal(a.clock.Snapshot(), b.clock.Snapshot()) || a.clock.Now() != b.clock.Now() {
					t.Errorf("clocks differ: now %d vs %d\n%v\n%v", a.clock.Now(), b.clock.Now(), a.clock.Snapshot(), b.clock.Snapshot())
				}
				if a.blob != b.blob || !slices.Equal(a.heapBytes(c), b.heapBytes(c)) {
					t.Errorf("heaps differ: blob %#x vs %#x", a.blob, b.blob)
				}
				for f := 0; f < a.kern.PCMPages(); f++ {
					if a.kern.FrameFailedLines(f) != b.kern.FrameFailedLines(f) {
						t.Errorf("kernel failure tables differ at frame %d", f)
						break
					}
				}
				if a.tv.PendingRecovery() != b.tv.PendingRecovery() || fmt.Sprint(a.tv.Degraded()) != fmt.Sprint(b.tv.Degraded()) {
					t.Errorf("runtime state differs: pending %v vs %v, degraded %v vs %v",
						a.tv.PendingRecovery(), b.tv.PendingRecovery(), a.tv.Degraded(), b.tv.Degraded())
				}
				if !slices.Equal(a.probes, b.probes) {
					t.Errorf("probe sequences differ:\n%v\n%v", a.probes, b.probes)
				}
			})
		}
	}
}

// heapBytes returns the blob's elements as the heap holds them.
func (tw *bytesTwin) heapBytes(c bytesCase) []byte {
	return slices.Clone(tw.tv.Model().S.Bytes(tw.blob+heap.ArrayHeaderSize, c.blobLen))
}

// A blob fill on a healthy device allocates nothing: the line's old bytes
// are kept on the stack and the device copies into pages it already holds.
func TestSetArrayBytesAllocatesNothing(t *testing.T) {
	tw := newBytesTwin(t, bytesCase{blobLen: 12000}, false)
	src := make([]byte, 12000)
	if n := testing.AllocsPerRun(20, func() { tw.tv.SetArrayBytes(tw.blob, 0, src) }); n != 0 {
		t.Fatalf("a 12000-byte fill allocated %v times", n)
	}
}
