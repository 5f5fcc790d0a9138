package wearmem

import (
	"fmt"
	"math/rand"

	"wearmem/internal/failmap"
	"wearmem/internal/kernel"
	"wearmem/internal/machine"
	"wearmem/internal/stats"
	"wearmem/internal/vm"
)

// Runtime is an assembled simulation stack: the deterministic clock, an
// optional wearing PCM device, the OS kernel over the PCM pool, and the
// failure-aware managed runtime on top. Open validates the options and
// hands the stack to internal/machine.Boot, which wires the layers in the
// only valid order (clock → device → kernel → VM) so callers cannot
// mis-stack them.
type Runtime struct {
	// Clock is the shared simulated-time source every layer charges.
	Clock *Clock
	// Device is the live wearing PCM module backing the pool, or nil when
	// the pool is plain memory with (at most) statically injected failures.
	// It is single-owner unless the runtime was opened
	// WithEngine("threaded"): on the baton engine call its methods from the
	// goroutine that drives the runtime (another may read FailedLines,
	// FailureRate, BufferLen and Stalled, nothing else); a threaded runtime
	// equips it with its lock, and any goroutine may then call anything.
	Device *Device
	// Kernel is the OS model owning the PCM pool's page frames.
	Kernel *Kernel
	// VM is the managed runtime; allocate and collect through it.
	VM *VM
	// Inject is the static failure map the pool was opened with, or nil.
	Inject *FailureMap
	// Recovery holds the device-state recovery statistics when the runtime
	// was opened WithPersistentImage, or nil for a fresh boot.
	Recovery *RecoverStats

	nMutators int
	muts      []*Mutator
	rec       *stats.LatencyRecorder
}

// openConfig accumulates option values before assembly.
type openConfig struct {
	poolPages    int
	heapBytes    int
	collector    CollectorKind
	failureRate  float64
	clusterPages int
	inject       *FailureMap
	seed         int64
	engine       string
	mutators     int
	latency      bool
	wearing      bool
	endurance    uint64
	variation    float64
	writeThrough bool
	deviceTune   func(*DeviceConfig)
	pauseBudget  int
	image        *DeviceImage
	policy       string
}

// Option configures Open.
type Option func(*openConfig)

// WithPoolPages sizes the PCM pool in pages (default 4096 = 16 MB).
func WithPoolPages(pages int) Option { return func(c *openConfig) { c.poolPages = pages } }

// WithHeapBytes sizes the managed heap (default 2 MB).
func WithHeapBytes(n int) Option { return func(c *openConfig) { c.heapBytes = n } }

// WithCollector selects the collector (default StickyImmix).
func WithCollector(k CollectorKind) Option { return func(c *openConfig) { c.collector = k } }

// WithFailureRate statically injects uniform line failures at rate f into
// the pool before the runtime boots and enables the §6.2 heap
// compensation.
func WithFailureRate(f float64) Option { return func(c *openConfig) { c.failureRate = f } }

// WithClusterPages models §3.1.2 failure-clustering hardware with regions
// of the given number of pages, applied to the injected failure map.
func WithClusterPages(pages int) Option { return func(c *openConfig) { c.clusterPages = pages } }

// WithInject supplies an explicit failure map (e.g. from a worn-out
// device) instead of uniform generation; WithClusterPages still applies.
func WithInject(m *FailureMap) Option { return func(c *openConfig) { c.inject = m } }

// WithSeed drives failure-map generation and device endurance variation
// (default 42).
func WithSeed(seed int64) Option { return func(c *openConfig) { c.seed = seed } }

// WithEngine selects the execution engine: "baton" (default — the
// deterministic cooperative scheduler) or "threaded" (real mutator
// goroutines with stop-the-world rendezvous and parallel trace/sweep).
func WithEngine(name string) Option { return func(c *openConfig) { c.engine = name } }

// WithMutators configures the number of mutator contexts (default 1).
// Fetch handles with Runtime.Mutators or drive a benchmark across them
// with Runtime.RunBenchmark.
func WithMutators(n int) Option { return func(c *openConfig) { c.mutators = n } }

// WithLatencyCapture records per-operation latency during
// Runtime.RunBenchmark on scenario benchmarks (e.g. the kv server);
// retrieve quantiles with Runtime.LatencyReport.
func WithLatencyCapture() Option { return func(c *openConfig) { c.latency = true } }

// WithWearingDevice backs the pool with a live PCM module whose lines
// endure a mean of endurance writes (spread by the given coefficient of
// variation), enabling dynamic failures and the §3.1.1 failure buffer.
func WithWearingDevice(endurance uint64, variation float64) Option {
	return func(c *openConfig) {
		c.wearing = true
		c.endurance = endurance
		c.variation = variation
	}
}

// WithWriteThrough pushes every mutator store through the kernel to the
// wearing device, applying wear and failure-buffer backpressure to the
// workload itself (implies WithWearingDevice has been configured).
func WithWriteThrough() Option { return func(c *openConfig) { c.writeThrough = true } }

// WithDeviceTuning adjusts the wearing device's configuration (wear
// leveling, buffer sizing, clustering hardware) after the standard
// fields are filled in and before the device is built. Start-gap wear
// leveling and clustering hardware are exclusive: like any configuration
// the device refuses, tuning both panics in Open.
func WithDeviceTuning(tune func(*DeviceConfig)) Option {
	return func(c *openConfig) { c.deviceTune = tune }
}

// WithPauseBudget bounds each GC marking pause to at most budget simulated
// cycles instead of stop-the-world collections. Requires the StickyImmix
// collector (the default). On the baton engine marking proceeds in bounded
// increments between mutator turns, preserving byte-for-byte determinism;
// on the threaded engine one marker goroutine per mutator marks while the
// mutators keep executing, bounding pauses to short initial-mark and
// final-mark phases — except under WithWriteThrough, whose line writeback
// would race the markers, where collections stay stop-the-world.
// Defragmentation remains a stop-the-world full collection.
func WithPauseBudget(budget int) Option { return func(c *openConfig) { c.pauseBudget = budget } }

// WithPersistentImage boots the stack over a device image captured by
// Runtime.Snapshot (or pcm snapshotting) instead of a fresh pool: the
// device is restored from the image's durable state, the kernel runs the
// full recovery protocol (drain orphans → rescan → scrub → admit) before
// the runtime boots, and the statistics land in Runtime.Recovery. The pool
// is sized by the image, so WithPoolPages is ignored; the image carries
// the device tuning, so WithWearingDevice, WithDeviceTuning and WithInject
// conflict with it. Open refuses an image of a module larger than 256 MB.
// Open returns ErrDeviceWornOut (test with errors.Is) when recovery finds
// too few usable frames for the configured heap.
func WithPersistentImage(img *DeviceImage) Option {
	return func(c *openConfig) { c.image = img }
}

// WithPolicy selects the kernel's frame policy by name: "paper" (the
// default — the paper's first-fit placement and reactive remapping, bit
// for bit), "rotate" (SoftWear-style wear rotation), "decoder"
// (WoLFRaM-style address-decoder swaps) or "migrate" (MigrantStore-style
// DRAM migration). The non-paper policies observe per-frame write wear
// and migrate hot frames before their lines fail. Policy state persists
// in the device's OS metadata area and survives Snapshot /
// WithPersistentImage round trips under the same policy.
func WithPolicy(name string) Option { return func(c *openConfig) { c.policy = name } }

// Open assembles a simulation stack from functional options: the clock,
// an optional wearing device, the kernel over the PCM pool, and the
// failure-aware runtime, wired in the only valid order:
//
//	rt, err := wearmem.Open(
//	    wearmem.WithPoolPages(4096),
//	    wearmem.WithHeapBytes(2<<20),
//	    wearmem.WithFailureRate(0.25),
//	    wearmem.WithClusterPages(2),
//	)
//	node := rt.VM.RegisterType(...)
func Open(opts ...Option) (*Runtime, error) {
	c := openConfig{
		poolPages: 4096,
		heapBytes: 2 << 20,
		collector: StickyImmix,
		seed:      42,
		mutators:  1,
	}
	for _, opt := range opts {
		opt(&c)
	}

	threaded := false
	switch c.engine {
	case "", "baton":
	case "threaded":
		threaded = true
	default:
		return nil, fmt.Errorf("wearmem: unknown engine %q (want baton or threaded)", c.engine)
	}
	if c.image != nil {
		if c.wearing {
			return nil, fmt.Errorf("wearmem: WithPersistentImage conflicts with WithWearingDevice (the image carries the device)")
		}
		if c.deviceTune != nil {
			return nil, fmt.Errorf("wearmem: WithPersistentImage conflicts with WithDeviceTuning (the image carries the tuning)")
		}
		if c.inject != nil {
			return nil, fmt.Errorf("wearmem: WithPersistentImage conflicts with WithInject (the image carries the failures)")
		}
		c.poolPages = c.image.Size / PageSize
	}
	if c.poolPages <= 0 {
		return nil, fmt.Errorf("wearmem: pool of %d pages", c.poolPages)
	}
	if c.heapBytes <= 0 {
		return nil, fmt.Errorf("wearmem: heap of %d bytes", c.heapBytes)
	}
	if c.poolPages*PageSize < c.heapBytes {
		return nil, fmt.Errorf("wearmem: %d-page pool cannot hold a %d-byte heap",
			c.poolPages, c.heapBytes)
	}
	if c.failureRate < 0 || c.failureRate >= 1 {
		return nil, fmt.Errorf("wearmem: failure rate %v outside [0, 1)", c.failureRate)
	}
	if c.mutators < 1 {
		return nil, fmt.Errorf("wearmem: %d mutators", c.mutators)
	}
	if c.writeThrough && !c.wearing && c.image == nil {
		return nil, fmt.Errorf("wearmem: WithWriteThrough requires WithWearingDevice or WithPersistentImage")
	}
	if c.pauseBudget < 0 {
		return nil, fmt.Errorf("wearmem: pause budget of %d cycles", c.pauseBudget)
	}
	if c.pauseBudget > 0 && c.collector != StickyImmix {
		return nil, fmt.Errorf("wearmem: bounded-pause marking requires the StickyImmix collector")
	}
	if _, err := kernel.NewPolicy(c.policy); err != nil {
		return nil, fmt.Errorf("wearmem: %w", err)
	}

	inject := c.inject
	if inject == nil && c.failureRate > 0 && c.image == nil {
		inject = failmap.New(c.poolPages * PageSize)
		failmap.GenerateUniform(inject, c.failureRate, rand.New(rand.NewSource(c.seed)))
	}
	if inject != nil && c.clusterPages > 0 {
		inject = failmap.ClusterHardware(inject, c.clusterPages)
	}

	spec := machine.Spec{
		Kernel: kernel.Config{
			PCMPages: c.poolPages,
			Inject:   inject,
			Policy:   c.policy,
		},
		Image:     c.image,
		MinFrames: c.heapBytes / PageSize,
		VM: vm.Config{
			HeapBytes:    c.heapBytes,
			Compensate:   c.failureRate > 0,
			Collector:    c.collector,
			FailureAware: true,
			Threaded:     threaded,
			TraceWorkers: machine.ThreadedLanes(threaded, c.mutators),
			PauseBudget:  c.pauseBudget,
			WriteThrough: c.writeThrough,
		},
	}
	if c.wearing {
		dc := DeviceConfig{
			Size:      c.poolPages * PageSize,
			Endurance: c.endurance,
			Variation: c.variation,
			TrackData: true,
			Seed:      c.seed,
		}
		if c.deviceTune != nil {
			c.deviceTune(&dc)
		}
		spec.Device = &dc
	} else if c.deviceTune != nil {
		return nil, fmt.Errorf("wearmem: WithDeviceTuning requires WithWearingDevice")
	}

	m, err := machine.Boot(spec)
	if err != nil {
		return nil, fmt.Errorf("wearmem: %w", err)
	}
	rt := &Runtime{
		Clock:     m.Clock,
		Device:    m.Device,
		Kernel:    m.Kernel,
		VM:        m.VM,
		Inject:    inject,
		Recovery:  m.Recovery,
		nMutators: c.mutators,
	}
	if c.latency {
		rt.rec = stats.NewLatencyRecorder(c.mutators)
	}
	return rt, nil
}

// MustOpen is Open, panicking on configuration errors.
func MustOpen(opts ...Option) *Runtime {
	rt, err := Open(opts...)
	if err != nil {
		panic(err)
	}
	return rt
}

// Mutators returns the runtime's mutator handles — index 0 is the VM's
// own context, the rest are attached on first call. Drive them by hand
// with Park/Unpark, as examples/multimutator does; for registered
// benchmarks prefer RunBenchmark, which manages its own contexts.
func (rt *Runtime) Mutators() []*Mutator {
	if rt.muts == nil {
		rt.muts = make([]*Mutator, rt.nMutators)
		rt.muts[0] = rt.VM.Mutator0()
		for i := 1; i < rt.nMutators; i++ {
			rt.muts[i] = rt.VM.AttachMutator()
		}
	}
	return rt.muts
}

// RunBenchmark executes a benchmark profile split across the configured
// mutator count on the configured engine, recording per-operation latency
// when the runtime was opened WithLatencyCapture. It attaches its own
// mutator contexts and therefore cannot be mixed with manual Mutators use
// on the same runtime.
func (rt *Runtime) RunBenchmark(b *Benchmark, iterations int) error {
	if rt.muts != nil {
		return fmt.Errorf("wearmem: RunBenchmark after Mutators on the same runtime")
	}
	if rt.rec != nil && b.Body != nil {
		b.Latency = rt.rec.Shard
	}
	return b.RunMutators(rt.VM, iterations, rt.nMutators)
}

// Snapshot captures the device's durable state as a power cut would leave
// it: wear, failures, redirection maps and line contents persist; entries
// pending in the volatile failure buffer are recorded only as torn orphan
// lines, their parked data lost. Reopen the image with WithPersistentImage
// (persist it across processes via EncodeImage/DecodeImage). It errors when
// the runtime has no wearing device — a plain-memory pool has no durable
// state to lose. Call at a quiescent point for a clean-shutdown image, or
// from a probe hook for a mid-operation crash image.
func (rt *Runtime) Snapshot() (*DeviceImage, error) {
	if rt.Device == nil {
		return nil, fmt.Errorf("wearmem: Snapshot requires a device-backed runtime (WithWearingDevice or WithPersistentImage)")
	}
	return rt.Device.Snapshot(), nil
}

// LatencyReport merges the per-mutator latency shards into quantile
// summaries with GC-pause and allocation-stall attribution. It returns
// nil unless the runtime was opened WithLatencyCapture and a benchmark
// recorded operations.
func (rt *Runtime) LatencyReport() *LatencyReport {
	return rt.rec.Report()
}
