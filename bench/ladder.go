package main

import (
	"bytes"
	"io"
	"math/rand"
	"sync/atomic"
	"time"

	"wearmem"
	"wearmem/internal/failmap"
	"wearmem/internal/harness"
	"wearmem/internal/heap"
	"wearmem/internal/kernel"
	"wearmem/internal/pcm"
	"wearmem/internal/sched"
	"wearmem/internal/stats"
	"wearmem/internal/verify"
	"wearmem/internal/vm"
)

// rung is one step of the per-layer ladder: a single public operation of a
// single layer, driven in a tight loop on a small fixture, reported as host
// ns/op and, where the simulated clock charges it, cycles/op. Rungs are
// workload-independent: they say what an operation costs on its own, the
// per-workload layer metrics say how much of it a workload does.
type rung struct {
	name string
	// n is the operation count at scale 1, sized so a rung takes tens of
	// milliseconds.
	n      int
	cycles bool
	// prep builds the fixture (untimed) and returns the loop.
	prep func(n int) loop
}

// loop runs a rung's operations. It times itself, because some rungs have
// untimed work between operations, and returns the host time and simulated
// cycles spent on ops operations.
type loop func() (ops int, host time.Duration, cyc stats.Cycles)

// perItem reports l's cost per item when every call of its operation works
// through items of them (live objects, pages, frames).
func (l loop) perItem(items int) loop {
	return func() (int, time.Duration, stats.Cycles) {
		ops, host, cyc := l()
		return ops * items, host, cyc
	}
}

// ladderReps is how many times each rung runs at full size; the median is
// reported. Below full size (the unit test) once is enough.
const ladderReps = 3

// runLadder runs every rung and returns ladder.<rung>.ns (and .cycles).
func runLadder(tr *tracer, scale float64) map[string]float64 {
	done := tr.span("ladder")
	defer done()
	out := map[string]float64{}
	reps := ladderReps
	if scale < 1 {
		reps = 1
	}
	for _, r := range ladder {
		n := int(float64(r.n) * scale)
		if n < 2 {
			n = 2
		}
		var ns, cyc []float64
		for i := 0; i < reps; i++ {
			loop := r.prep(n)
			rungDone := tr.span("ladder." + r.name)
			ops, host, c := loop()
			rungDone()
			ns = append(ns, float64(host.Nanoseconds())/float64(ops))
			cyc = append(cyc, float64(c)/float64(ops))
		}
		out["ladder."+r.name+".ns"] = stats.Median(ns)
		if r.cycles {
			out["ladder."+r.name+".cycles"] = stats.Median(cyc)
		}
	}
	return out
}

// loopOf times n calls of op against the clock (nil: no cycles).
func loopOf(n int, clock *stats.Clock, op func(i int)) loop {
	return func() (int, time.Duration, stats.Cycles) {
		var c0 stats.Cycles
		if clock != nil {
			c0 = clock.Now()
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		host := time.Since(t0)
		if clock != nil {
			return n, host, clock.Now() - c0
		}
		return n, host, 0
	}
}

// Heap object shapes the vm rungs allocate.
const (
	nodeNext = 8
	nodeAlt  = 16
	nodeVal  = 24
	nodeSize = 32
)

// fixture is a small assembled stack with the object types registered.
type fixture struct {
	rt               *wearmem.Runtime
	v                *vm.VM
	node, blob, refs *heap.Type
}

func newFixture(heapBytes int, opts ...wearmem.Option) *fixture {
	opts = append([]wearmem.Option{
		wearmem.WithHeapBytes(heapBytes),
		wearmem.WithPoolPages(2 * heapBytes / wearmem.PageSize),
	}, opts...)
	rt := wearmem.MustOpen(opts...)
	f := &fixture{rt: rt, v: rt.VM}
	f.node = f.v.RegisterType(&heap.Type{Name: "bench.node", Kind: heap.KindFixed, Size: nodeSize, RefOffsets: []int{nodeNext, nodeAlt}})
	f.blob = f.v.RegisterType(&heap.Type{Name: "bench.blob", Kind: heap.KindScalarArray, ElemSize: 1})
	f.refs = f.v.RegisterType(&heap.Type{Name: "bench.refs", Kind: heap.KindRefArray})
	return f
}

// liveSet roots an array of n nodes and returns it; after one collection
// the nodes are old (marked, unlogged).
func (f *fixture) liveSet(n int) *heap.Addr {
	arr := new(heap.Addr)
	f.v.AddRoot(arr)
	*arr = f.v.MustNewArray(f.refs, n)
	for i := 0; i < n; i++ {
		f.v.SetArrayRef(*arr, i, f.v.MustNew(f.node))
	}
	f.v.Collect(true)
	return arr
}

// wornDevice is tab2's device (start-gap, gap interval 1) with a quarter of
// its lines already failed and the failure buffer drained.
func wornDevice(pages int, clock *stats.Clock) *pcm.Device {
	dev := pcm.NewDevice(pcm.Config{
		Size: pages * failmap.PageSize, Endurance: 1 << 40,
		WearLeveling: pcm.StartGap, GapInterval: 1, TrackData: true,
	}, clock)
	for l := 0; l < dev.Lines(); l += 4 {
		dev.ForceFail(l, nil)
		for dev.BufferLen() > 0 {
			dev.Drain()
		}
	}
	return dev
}

const ladderLive = 20000 // live objects behind the collect and verify rungs

var ladderSink uint64

var ladder = []rung{
	{name: "harness.memo_hit", n: 8000, prep: func(n int) loop {
		r := harness.NewRunner()
		rc := harness.RunConfig{Bench: "pmd", HeapMult: 2, Collector: vm.StickyImmix, Iterations: 50}
		r.Run(rc)
		return loopOf(n, nil, func(int) { r.Run(rc) })
	}},
	{name: "harness.emit_text", n: 2000, prep: func(n int) loop {
		rep := harness.ByID("tab3").Run(harness.Options{Quick: true, Seed: 1, Parallel: 1})
		return loopOf(n, nil, func(int) { rep.Render(io.Discard) })
	}},
	// One op is one MB of address space materialised a 32 KB block at a
	// time, the way a growing heap asks for it.
	{name: "heap.space_ensure", n: 32, prep: func(n int) loop {
		const block = 32 << 10
		return func() (int, time.Duration, stats.Cycles) {
			s := heap.NewSpace()
			t0 := time.Now()
			for limit := block; limit <= n<<20; limit += block {
				s.Ensure(heap.Addr(limit))
			}
			return n, time.Since(t0), 0
		}
	}},
	{name: "vm.new_small", n: 200000, cycles: true, prep: func(n int) loop {
		f := newFixture(4 << 20)
		return loopOf(n, f.rt.Clock, func(int) { f.v.MustNew(f.node) })
	}},
	{name: "vm.new_array", n: 100000, cycles: true, prep: func(n int) loop {
		f := newFixture(4 << 20)
		return loopOf(n, f.rt.Clock, func(int) { f.v.MustNewArray(f.blob, 256) })
	}},
	{name: "vm.new_large", n: 5000, cycles: true, prep: func(n int) loop {
		f := newFixture(8 << 20)
		return loopOf(n, f.rt.Clock, func(int) { f.v.MustNewArray(f.blob, 16<<10) })
	}},
	{name: "vm.read_ref", n: 2000000, cycles: true, prep: func(n int) loop {
		f := newFixture(4 << 20)
		a := f.v.MustNew(f.node)
		f.v.AddRoot(&a)
		f.v.WriteRef(a, nodeNext, f.v.MustNew(f.node))
		return loopOf(n, f.rt.Clock, func(int) { ladderSink += uint64(f.v.ReadRef(a, nodeNext)) })
	}},
	// A store into a young object: the barrier has nothing to log.
	{name: "vm.write_ref", n: 2000000, cycles: true, prep: func(n int) loop {
		f := newFixture(4 << 20)
		a, b := f.v.MustNew(f.node), f.v.MustNew(f.node)
		f.v.AddRoot(&a)
		f.v.AddRoot(&b)
		return loopOf(n, f.rt.Clock, func(int) { f.v.WriteRef(a, nodeNext, b) })
	}},
	// The first store into each old object: the barrier's logging path.
	{name: "vm.write_ref_logged", n: 50000, cycles: true, prep: func(n int) loop {
		f := newFixture(16 << 20)
		arr := f.liveSet(n)
		olds := make([]heap.Addr, n)
		for i := range olds {
			olds[i] = f.v.ArrayRef(*arr, i)
		}
		return loopOf(n, f.rt.Clock, func(i int) { f.v.WriteRef(olds[i], nodeNext, olds[0]) })
	}},
	{name: "vm.write_word_wt", n: 200000, cycles: true, prep: func(n int) loop {
		f := newFixture(4<<20, wearmem.WithWearingDevice(1<<40, 0), wearmem.WithWriteThrough())
		a := f.v.MustNew(f.node)
		f.v.AddRoot(&a)
		return loopOf(n, f.rt.Clock, func(i int) { f.v.WriteWord(a, nodeVal, uint64(i)) })
	}},
	// A dynamic failure on a mostly empty heap: the up-call retires the
	// line, rarely finds live data, rarely collects.
	{name: "vm.handle_failures", n: 200, cycles: true, prep: func(n int) loop {
		f := newFixture(8 << 20)
		for i := 0; i < 100000; i++ {
			f.v.MustNewArray(f.blob, 256) // map blocks, leave garbage
		}
		f.v.Collect(true)
		rng := rand.New(rand.NewSource(1))
		return loopOf(n, f.rt.Clock, func(int) { f.rt.Kernel.InjectRandomDynamicFailure(rng) })
	}},
	{name: "vm.collect_nursery", n: 30, cycles: true, prep: func(n int) loop {
		const young = 2000
		f := newFixture(16 << 20)
		f.liveSet(ladderLive)
		var head heap.Addr
		f.v.AddRoot(&head)
		return func() (int, time.Duration, stats.Cycles) {
			var host time.Duration
			var cyc stats.Cycles
			for i := 0; i < n; i++ {
				head = 0
				for j := 0; j < young; j++ { // a young list that survives
					x := f.v.MustNew(f.node)
					f.v.WriteRef(x, nodeNext, head)
					head = x
				}
				c0, t0 := f.rt.Clock.Now(), time.Now()
				f.v.Collect(false)
				host += time.Since(t0)
				cyc += f.rt.Clock.Now() - c0
			}
			return n * young, host, cyc // per young survivor
		}
	}},
	{name: "vm.collect_full", n: 20, cycles: true, prep: func(n int) loop {
		f := newFixture(16 << 20)
		f.liveSet(ladderLive)
		return loopOf(n, f.rt.Clock, func(int) { f.v.Collect(true) }).perItem(ladderLive) // per live object
	}},
	// A dynamic failure on a full heap: nearly every line holds live data,
	// so nearly every up-call runs a defragmenting collection.
	{name: "vm.collect_defrag", n: 20, cycles: true, prep: func(n int) loop {
		f := newFixture(16 << 20)
		f.liveSet(ladderLive)
		rng := rand.New(rand.NewSource(1))
		return loopOf(n, f.rt.Clock, func(int) { f.rt.Kernel.InjectRandomDynamicFailure(rng) }).perItem(ladderLive) // per live object
	}},
	// One mutator stops the world around an empty nursery collection while
	// the other polls its safepoint: the threaded engine's rendezvous.
	{name: "vm.stw_roundtrip", n: 2000, prep: func(n int) loop {
		f := newFixture(4<<20, wearmem.WithEngine("threaded"), wearmem.WithMutators(2))
		muts := f.rt.Mutators()
		return func() (int, time.Duration, stats.Cycles) {
			var stop atomic.Bool
			var host time.Duration
			err := f.v.RunThreads(
				func() error {
					defer stop.Store(true)
					t0 := time.Now()
					for i := 0; i < n; i++ {
						f.v.Collect(false)
					}
					host = time.Since(t0)
					return nil
				},
				func() error {
					for !stop.Load() {
						muts[1].Safepoint()
					}
					return nil
				},
			)
			if err != nil {
				panic(err)
			}
			return n, host, 0
		}
	}},
	{name: "sched.switch", n: 200000, prep: func(n int) loop {
		task := func(y sched.Yielder) error {
			for i := 0; i < n/2; i++ {
				y.Yield()
			}
			return nil
		}
		return func() (int, time.Duration, stats.Cycles) {
			t0 := time.Now()
			if err := sched.Run(task, task); err != nil {
				panic(err)
			}
			return n, time.Since(t0), 0
		}
	}},
	{name: "stats.charge", n: 5000000, prep: func(n int) loop {
		clock := stats.NewClock(stats.DefaultCosts())
		return loopOf(n, nil, func(int) { clock.Charge1(stats.EvFieldRead) })
	}},
	{name: "stats.latency_record", n: 5000000, prep: func(n int) loop {
		shard := stats.NewLatencyRecorder(1).Shard(0)
		return loopOf(n, nil, func(i int) { shard.RecordOp(stats.Cycles(200+i&1023), 0, 0) })
	}},
	{name: "pcm.write", n: 1000000, cycles: true, prep: func(n int) loop {
		clock := stats.NewClock(stats.DefaultCosts())
		dev := pcm.NewDevice(pcm.Config{Size: 1024 * failmap.PageSize, Endurance: 1 << 40, TrackData: true}, clock)
		buf := make([]byte, failmap.LineSize)
		lines := dev.Lines()
		return loopOf(n, clock, func(i int) { dev.Write(i%lines, buf) })
	}},
	{name: "pcm.write_worn", n: 1000000, cycles: true, prep: func(n int) loop {
		clock := stats.NewClock(stats.DefaultCosts())
		dev := wornDevice(1024, clock)
		buf := make([]byte, failmap.LineSize)
		lines := dev.Lines()
		return loopOf(n, clock, func(i int) { dev.Write(i%lines, buf) })
	}},
	{name: "pcm.read", n: 2000000, prep: func(n int) loop {
		dev := pcm.NewDevice(pcm.Config{Size: 1024 * failmap.PageSize, Endurance: 1 << 40, TrackData: true}, nil)
		buf := make([]byte, failmap.LineSize)
		lines := dev.Lines()
		return loopOf(n, nil, func(i int) { dev.Read(i%lines, buf) })
	}},
	// One op is one snapshot of a 1024-page worn device.
	{name: "pcm.snapshot", n: 20, prep: func(n int) loop {
		dev := wornDevice(1024, nil)
		return loopOf(n, nil, func(int) { ladderSink += uint64(dev.Snapshot().Size) })
	}},
	// One op is encode, decode and restore of that device's image.
	{name: "pcm.image_roundtrip", n: 5, prep: func(n int) loop {
		img := wornDevice(1024, nil).Snapshot()
		return loopOf(n, nil, func(int) {
			var buf bytes.Buffer
			if err := pcm.EncodeImage(&buf, img); err != nil {
				panic(err)
			}
			back, err := pcm.DecodeImage(&buf)
			if err != nil {
				panic(err)
			}
			if _, err := pcm.NewDeviceFromImage(back, nil, nil); err != nil {
				panic(err)
			}
		})
	}},
	{name: "kernel.mmap_relaxed", n: 8000, cycles: true, prep: func(n int) loop {
		k, clock := ladderKernel(8*n, 0.10, false)
		return loopOf(n, clock, func(int) {
			if _, err := k.MmapRelaxed(8); err != nil {
				panic(err)
			}
		})
	}},
	{name: "kernel.mmap_perfect", n: 20000, cycles: true, prep: func(n int) loop {
		k, clock := ladderKernel(4*n, 0.01, false) // about half the pages are perfect
		return loopOf(n, clock, func(int) { k.MmapPerfect(1) })
	}},
	{name: "kernel.write_line", n: 500000, cycles: true, prep: func(n int) loop {
		k, clock := ladderKernel(256, 0, true)
		r, err := k.MmapRelaxed(256)
		if err != nil {
			panic(err)
		}
		buf := make([]byte, failmap.LineSize)
		lines := r.Size() / failmap.LineSize
		return loopOf(n, clock, func(i int) {
			if err := k.WriteLine(r.Base+uint64(i%lines)*failmap.LineSize, buf); err != nil {
				panic(err)
			}
		})
	}},
	// 256 regions of 8 pages: the page table of an 8 MB heap of 32 KB blocks.
	{name: "kernel.translate", n: 500000, prep: func(n int) loop {
		const regions = 256
		k, _ := ladderKernel(8*regions, 0, false)
		var base uint64
		for i := 0; i < regions; i++ {
			r, err := k.MmapRelaxed(8)
			if err != nil {
				panic(err)
			}
			if i == 0 {
				base = r.Base
			}
		}
		span := uint64(8 * regions * failmap.PageSize)
		return loopOf(n, nil, func(i int) {
			f, _, _ := k.Translate(base + uint64(i)*4099%span)
			ladderSink += uint64(f)
		})
	}},
	// One op is one frame of a 1024-page worn device recovered after a cut.
	{name: "kernel.recover", n: 3, cycles: true, prep: func(n int) loop {
		const pages = 1024
		img := wornDevice(pages, nil).Snapshot()
		return func() (int, time.Duration, stats.Cycles) {
			var host time.Duration
			var cyc stats.Cycles
			for i := 0; i < n; i++ {
				clock := stats.NewClock(stats.DefaultCosts())
				dev, err := pcm.NewDeviceFromImage(img, clock, nil)
				if err != nil {
					panic(err)
				}
				k := kernel.New(kernel.Config{PCMPages: pages, Device: dev, Clock: clock})
				t0 := time.Now()
				st, err := k.Recover(kernel.RecoverOptions{})
				if err != nil {
					panic(err)
				}
				host += time.Since(t0)
				cyc += st.Cycles
			}
			return n * pages, host, cyc
		}
	}},
	// One op is one page of a 4096-page map.
	{name: "failmap.generate_uniform", n: 5, prep: func(n int) loop {
		const pages = 4096
		rng := rand.New(rand.NewSource(1))
		return loopOf(n, nil, func(int) {
			failmap.GenerateUniform(failmap.New(pages*failmap.PageSize), 0.10, rng)
		}).perItem(pages)
	}},
	{name: "failmap.cluster_hardware", n: 5, prep: func(n int) loop {
		const pages = 4096
		m := failmap.New(pages * failmap.PageSize)
		failmap.GenerateUniform(m, 0.10, rand.New(rand.NewSource(1)))
		return loopOf(n, nil, func(int) { ladderSink += uint64(failmap.ClusterHardware(m, 2).Lines()) }).perItem(pages)
	}},
	// One op is one live object of a verified heap.
	{name: "verify.heap", n: 5, prep: func(n int) loop {
		f := newFixture(16<<20, wearmem.WithWearingDevice(1<<40, 0))
		f.liveSet(ladderLive)
		ix := f.v.Immix()
		return loopOf(n, nil, func(int) {
			rep := verify.Heap(verify.Target{
				Model: f.v.Model(), Roots: f.v.Roots(), Views: ix.BlockViews(), Epoch: ix.Epoch(),
				Kernel: f.rt.Kernel, Device: f.rt.Device, Policy: f.rt.Kernel,
			}, verify.Options{})
			if !rep.Ok() {
				panic(rep.Err())
			}
		}).perItem(ladderLive)
	}},
	{name: "verify.census", n: 10, prep: func(n int) loop {
		f := newFixture(16 << 20)
		f.liveSet(ladderLive)
		return loopOf(n, nil, func(int) { ladderSink += verify.Census(f.v.Model(), f.v.Roots()).Hash }).perItem(ladderLive)
	}},
}

// ladderKernel is a kernel over a pool with uniform static failures at the
// given rate, optionally backed by a device that never wears out.
func ladderKernel(pages int, rate float64, device bool) (*kernel.Kernel, *stats.Clock) {
	clock := stats.NewClock(stats.DefaultCosts())
	cfg := kernel.Config{PCMPages: pages, Clock: clock}
	if rate > 0 {
		cfg.Inject = failmap.New(pages * failmap.PageSize)
		failmap.GenerateUniform(cfg.Inject, rate, rand.New(rand.NewSource(1)))
	}
	if device {
		cfg.Device = pcm.NewDevice(pcm.Config{Size: pages * failmap.PageSize, Endurance: 1 << 40, TrackData: true}, clock)
	}
	return kernel.New(cfg), clock
}
