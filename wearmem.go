// Package wearmem reproduces "Using Managed Runtime Systems to Tolerate
// Holes in Wearable Memories" (Gao, Strauss, Blackburn, McKinley, Burger,
// Larus — PLDI 2013) as an executable simulation.
//
// The package is a facade over the implementation packages:
//
//   - failure maps and clustering:       internal/failmap, internal/cluster
//   - the PCM device model:              internal/pcm
//   - the operating system model:        internal/kernel
//   - the collectors (Immix et al.):     internal/core over internal/heap
//   - the managed runtime:               internal/vm
//   - benchmarks and experiments:        internal/workload, internal/harness
//
// Open assembles a complete failure-tolerant stack — clock, optional
// wearing PCM device, OS kernel, managed runtime — from functional
// options:
//
//	rt := wearmem.MustOpen(
//	    wearmem.WithPoolPages(4096),       // 16 MB PCM pool
//	    wearmem.WithHeapBytes(2<<20),      // 2 MB managed heap
//	    wearmem.WithFailureRate(0.25),     // 25% of lines failed
//	    wearmem.WithClusterPages(2),       // §3.1.2 clustering hardware
//	)
//
// after which rt.VM.New / rt.VM.NewArray allocate objects that the
// failure-aware collector keeps clear of failed lines, moving them when
// lines fail during execution. See examples/ for complete programs and
// cmd/wearbench for the experiment harness that regenerates the paper's
// figures.
package wearmem

import (
	"wearmem/internal/failmap"
	"wearmem/internal/harness"
	"wearmem/internal/heap"
	"wearmem/internal/kernel"
	"wearmem/internal/pcm"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
	"wearmem/internal/verify"
	"wearmem/internal/vm"
	"wearmem/internal/workload"
)

// Memory geometry (the paper's: 64 B PCM lines, 4 KB pages).
const (
	LineSize     = failmap.LineSize
	PageSize     = failmap.PageSize
	LinesPerPage = failmap.LinesPerPage
)

// Failure maps (internal/failmap).
type FailureMap = failmap.Map

// NewFailureMap returns an all-working failure map covering size bytes.
func NewFailureMap(size int) *FailureMap { return failmap.New(size) }

// The PCM device model (internal/pcm).
type (
	// Device is a simulated PCM module with write endurance, a failure
	// buffer and optional wear leveling and clustering hardware.
	Device = pcm.Device
	// DeviceConfig parametrizes a Device.
	DeviceConfig = pcm.Config
	// WearLeveling selects the device's wear-leveling scheme.
	WearLeveling = pcm.WearLeveling
)

// Wear-leveling policies.
const (
	NoWearLeveling = pcm.NoWearLeveling
	StartGap       = pcm.StartGap
)

// Crash-consistent persistence (internal/pcm, internal/kernel): a
// DeviceImage is the durable state a power failure leaves behind;
// WithPersistentImage restores it and runs the kernel recovery protocol
// before the runtime boots.
type (
	// DeviceImage is the serializable durable state of a PCM module —
	// wear, failures, redirection maps, line contents. The volatile
	// failure buffer is not captured: its entries survive only as torn
	// OrphanLine records.
	DeviceImage = pcm.DeviceImage
	// OrphanLine is one failure-buffer entry lost to a power cut.
	OrphanLine = pcm.OrphanLine
	// RecoverOptions tune the kernel's device-state recovery.
	RecoverOptions = kernel.RecoverOptions
	// RecoverStats reports what recovery found and repaired; see
	// Runtime.Recovery.
	RecoverStats = kernel.RecoverStats
)

// EncodeImage writes a device image in its wire encoding.
var EncodeImage = pcm.EncodeImage

// DecodeImage reads a device image written by EncodeImage.
var DecodeImage = pcm.DecodeImage

// ErrDeviceWornOut is the typed graceful terminal: recovery found too few
// usable frames. Open returns it wrapped; test with errors.Is.
var ErrDeviceWornOut = kernel.ErrDeviceWornOut

// The operating system model (internal/kernel).
type (
	// Kernel owns physical page frames, the failure table and the
	// debit-credit perfect-page accounting.
	Kernel = kernel.Kernel
)

// The managed runtime (internal/vm) and its object model (internal/heap).
type (
	// VM is a failure-aware managed runtime instance.
	VM = vm.VM
	// Addr is a reference into the simulated heap; 0 is nil.
	Addr = heap.Addr
	// Type describes a class of heap objects.
	Type = heap.Type
)

// CollectorKind selects the collection algorithm (Fig. 3).
type CollectorKind = vm.CollectorKind

// Collector kinds (Fig. 3).
const (
	Immix           = vm.Immix
	StickyImmix     = vm.StickyImmix
	MarkSweep       = vm.MarkSweep
	StickyMarkSweep = vm.StickyMarkSweep
)

// Object kinds for Type registration.
const (
	KindFixed       = heap.KindFixed
	KindRefArray    = heap.KindRefArray
	KindScalarArray = heap.KindScalarArray
)

// The deterministic cost model (internal/stats).
type (
	// Clock accumulates simulated time.
	Clock = stats.Clock
	// Cycles is the unit of simulated time.
	Cycles = stats.Cycles
)

// Benchmarks and experiments (internal/workload, internal/harness).
type (
	// Benchmark is one DaCapo-shaped synthetic mutator profile.
	Benchmark = workload.Profile
	// Experiment regenerates one figure or table of the paper.
	Experiment = harness.Experiment
	// ExperimentOptions control experiment scale.
	ExperimentOptions = harness.Options
	// Runner memoizes benchmark runs across experiments.
	Runner = harness.Runner
	// RunConfig is one benchmark × configuration point.
	RunConfig = harness.RunConfig
	// RunResult is the outcome of one configuration run.
	RunResult = harness.Result
)

// NewRunner returns a memoizing benchmark runner.
func NewRunner() *Runner { return harness.NewRunner() }

// Per-operation latency capture (internal/stats); enable on a Runtime
// with WithLatencyCapture or on a RunConfig with its Latency field.
type (
	// LatencyReport summarizes request latency with GC-pause and
	// allocation-stall attribution.
	LatencyReport = stats.LatencyReport
	// QuantileSummary is one latency distribution digest (p50..p999).
	QuantileSummary = stats.QuantileSummary
)

// Benchmarks returns the 12-benchmark suite.
func Benchmarks() []*Benchmark { return workload.Suite() }

// BenchmarkByName returns a benchmark by its DaCapo name, or nil.
func BenchmarkByName(name string) *Benchmark { return workload.ByName(name) }

// Experiments returns every figure/table experiment in order.
func Experiments() []Experiment { return harness.All() }

// ExperimentByID returns one experiment (e.g. "fig4"), or nil. Beyond the
// paper's figures this also resolves the implementation studies excluded
// from Experiments(), e.g. "mutscale".
func ExperimentByID(id string) *Experiment { return harness.ByID(id) }

// Multi-mutator runtime (internal/vm, internal/sched, internal/workload).
//
// A VM hands out mutators — Mutator0 is the VM's primary mutator, the one
// its plain entry points run as; Attach adds mutators with private Immix
// contexts up to a count — and the deterministic baton scheduler
// interleaves them: a mutator unparks when it receives the baton,
// allocates, parks at a safepoint and yields. Same seed, same schedule,
// byte-identical runs at any mutator count.
type (
	// Mutator is one mutator thread's view of a VM: private allocation
	// context, shared heap, loads/stores/barriers on the VM's paths.
	Mutator = vm.Mutator
)

// Instrumentation probes (internal/probe).
type (
	// ProbePoint identifies one instrumented phase boundary.
	ProbePoint = probe.Point
	// ProbeHook observes probe points. Open reaches one layer's: set
	// DeviceConfig.Probe through WithDeviceTuning to observe the device's
	// PCMFailure points.
	ProbeHook = probe.Hook
)

// The production heap verifier (internal/verify).
type (
	// VerifyReport lists invariant violations; Ok reports none.
	VerifyReport = verify.Report
)

// RecoveredTarget is the post-recovery state handed to VerifyRecovered: a
// Kernel satisfies Pool and a Device satisfies Scan and Clusters directly.
type RecoveredTarget = verify.RecoveredTarget

// VerifyRecovered cross-checks a recovered kernel failure table against a
// device ground-truth scan, in both directions — a resurrected failed line
// is the dangerous one — plus buffer residue and redirection-map sanity.
var VerifyRecovered = verify.Recovered
