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
	"wearmem/internal/chaos"
	"wearmem/internal/failmap"
	"wearmem/internal/harness"
	"wearmem/internal/heap"
	"wearmem/internal/kernel"
	"wearmem/internal/pcm"
	"wearmem/internal/probe"
	"wearmem/internal/sched"
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

// GenerateUniform injects uniform line failures with probability p.
var GenerateUniform = failmap.GenerateUniform

// GenerateClustered injects failures pre-clustered at a power-of-two
// granularity (the §6.4 limit study).
var GenerateClustered = failmap.GenerateClustered

// ClusterHardware applies the §3.1.2 failure-clustering transform with
// regions of the given number of pages.
var ClusterHardware = failmap.ClusterHardware

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
	// KernelConfig parametrizes a Kernel.
	KernelConfig = kernel.Config
)

// The managed runtime (internal/vm) and its object model (internal/heap).
type (
	// VM is a failure-aware managed runtime instance.
	VM = vm.VM
	// VMConfig parametrizes a VM.
	VMConfig = vm.Config
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

// NewClock returns a clock charging the calibrated default costs.
func NewClock() *Clock { return stats.NewClock(stats.DefaultCosts()) }

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
// A VM hands out mutators — Mutator0 shares the VM's own allocation
// context, AttachMutator adds one with a private Immix context — and the
// deterministic baton scheduler interleaves them: a mutator unparks when
// it receives the baton, allocates, parks at a safepoint and yields. Same
// seed, same schedule, byte-identical runs at any mutator count.
type (
	// Mutator is one mutator thread's view of a VM: private allocation
	// context, shared heap, loads/stores/barriers on the VM's paths.
	Mutator = vm.Mutator
	// Yielder hands the baton back to the scheduler inside a TaskFunc.
	Yielder = sched.Yielder
	// TaskFunc is one cooperatively scheduled task.
	TaskFunc = sched.Func
)

// RunTasks drives the tasks round-robin on the deterministic baton
// scheduler until all return; the first error aborts the rest.
func RunTasks(tasks ...TaskFunc) error { return sched.Run(tasks...) }

// RunBenchmarkMutators executes a benchmark split across the given number
// of mutators (1 = the exact historical serial run).
func RunBenchmarkMutators(p *Benchmark, v *VM, iterations, mutators int) error {
	return p.RunMutators(v, iterations, mutators)
}

// Instrumentation probes (internal/probe).
type (
	// ProbePoint identifies one instrumented phase boundary.
	ProbePoint = probe.Point
	// ProbeHook observes probe points; install via DeviceConfig.Probe,
	// KernelConfig.Probe and VMConfig.Probe.
	ProbeHook = probe.Hook
)

// The production heap verifier (internal/verify).
type (
	// VerifyReport lists invariant violations; Ok reports none.
	VerifyReport = verify.Report
	// VerifyTarget is the runtime state handed to VerifyHeap.
	VerifyTarget = verify.Target
	// VerifyOptions disables invariant families that are unsound at the
	// instant of the check.
	VerifyOptions = verify.Options
	// ContextView is one mutator context's allocation state, consumed by
	// VerifyMutators.
	ContextView = verify.ContextView
)

// VerifyHeap checks the live heap: graph soundness, span overlap, line
// states, the kernel failure table and the device failure buffer.
var VerifyHeap = verify.Heap

// VerifyMutators checks per-mutator context ownership: no two contexts
// share a block, every cursor within its own block's bounds.
var VerifyMutators = verify.Mutators

// RecoveredTarget is the post-recovery state handed to VerifyRecovered: a
// Kernel satisfies Pool and a Device satisfies Scan and Clusters directly.
type RecoveredTarget = verify.RecoveredTarget

// VerifyRecovered cross-checks a recovered kernel failure table against a
// device ground-truth scan, in both directions — a resurrected failed line
// is the dangerous one — plus buffer residue and redirection-map sanity.
var VerifyRecovered = verify.Recovered

// Fault-injection torture (internal/chaos).
type (
	// TortureOptions size a torture run.
	TortureOptions = chaos.Options
	// TortureConfig is one runtime configuration under torture.
	TortureConfig = chaos.TortureConfig
	// TortureSummary aggregates the campaigns, fit for a CI artifact.
	TortureSummary = chaos.Summary
	// TortureCampaign is one deterministic injection schedule.
	TortureCampaign = chaos.Campaign
)

// Torture runs the fault-injection suite: deterministic campaigns on every
// configuration with the heap verifier at each collection boundary.
func Torture(opt TortureOptions) *TortureSummary { return chaos.Run(opt) }

// NewTortureCampaign derives a campaign's injection schedule from a seed.
var NewTortureCampaign = chaos.NewCampaign

// TortureConfigs is every collector × failure-awareness combination.
var TortureConfigs = chaos.AllConfigs

// Crash campaigns (internal/chaos): torture runs that end in a power cut,
// then restore → recover → verify → resume over the worn device.
type (
	// CrashRecord is the outcome of one crash campaign.
	CrashRecord = chaos.CrashRecord
	// CrashSummary aggregates a crash sweep, fit for a CI artifact.
	CrashSummary = chaos.CrashSummary
	// TortureEvent is one scheduled injection ("point@N:action"); append
	// one with Act ActPowerCut to a TortureCampaign to make it a crash
	// campaign.
	TortureEvent = chaos.Event
	// TortureAction is what a TortureEvent does when it fires.
	TortureAction = chaos.Action
)

// Torture actions a facade user schedules; the verifier-bait actions
// (silent-taint, smash-header) stay internal to the break modes.
const (
	// ActFailHere permanently fails the PCM line behind the probed address.
	ActFailHere = chaos.ActFailHere
	// ActBufferStorm stalls the device with a failure-buffer flood.
	ActBufferStorm = chaos.ActBufferStorm
	// ActPowerCut snapshots the device's durable state and ends the run.
	ActPowerCut = chaos.ActPowerCut
)

// ParseTortureEvent parses the "point@N:action" schedule syntax that
// TortureEvent.String renders (the syntax wearsim repro commands use).
var ParseTortureEvent = chaos.ParseEvent

// RunCrashCampaign executes one crash campaign: the doomed run until the
// power cut, then restore, kernel recovery, recovered-state verification
// and a resumed workload over the worn device.
var RunCrashCampaign = chaos.RunCrashCampaign

// CrashSweep cuts power at every probe point across the crash
// configurations and seeds; every campaign must end verifier-clean or
// gracefully worn out.
var CrashSweep = chaos.CrashSweep

// CrashConfigs is the configuration matrix CrashSweep exercises.
var CrashConfigs = chaos.CrashConfigs

// MinimizeCrash greedily shrinks a failing crash campaign's schedule while
// the failure still reproduces; the power-cut event is never dropped.
var MinimizeCrash = chaos.MinimizeCrash
