// Package harness runs the paper's experiments: it assembles a PCM pool
// with injected failures, an OS, and a VM per configuration, executes the
// benchmark suite, and renders each figure and table of the evaluation
// (§6) as text.
package harness

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"wearmem/internal/core"
	"wearmem/internal/failmap"
	"wearmem/internal/kernel"
	"wearmem/internal/machine"
	"wearmem/internal/pcm"
	"wearmem/internal/sched"
	"wearmem/internal/seeded"
	"wearmem/internal/stats"
	"wearmem/internal/verify"
	"wearmem/internal/vm"
	"wearmem/internal/workload"
)

// RunConfig describes one benchmark execution.
type RunConfig struct {
	Bench string `json:"bench"` // benchmark name
	// HeapMult is the heap size as a multiple of the benchmark minimum
	// (0 = 2, and a 0 runs and memoizes as 2).
	HeapMult  float64          `json:"heapMult"`
	Collector vm.CollectorKind `json:"collector"`
	// LineSize is the Immix line size (0 = core.DefaultLineSize, 256 B,
	// and a 0 runs and memoizes as 256).
	LineSize int `json:"lineSize"`

	FailureAware bool    `json:"failureAware"`
	FailureRate  float64 `json:"failureRate"`
	// ClusterPages applies hardware failure clustering with regions of
	// this many pages (0 = none). It only acts on a generated map, so it
	// runs and memoizes as 0 when Inject is set or FailureRate is 0.
	ClusterPages int `json:"clusterPages"`
	// ClusterGran generates failures pre-clustered at this power-of-two
	// granularity in bytes (the §6.4 limit study; 0 = uniform 64 B lines).
	// One 64 B line per cluster is the uniform map, so failmap.LineSize
	// runs and memoizes as 0; so does any value when Inject is set or
	// FailureRate is 0.
	ClusterGran int `json:"clusterGran"`
	// Compensate enables h/(1-f) heap compensation (default on whenever
	// failures are injected; set NoCompensate to disable).
	NoCompensate bool `json:"noCompensate"`

	Iterations int   `json:"iterations"` // 0 = the benchmark default
	Seed       int64 `json:"seed"`

	// Mutators splits the benchmark across this many mutator contexts
	// driven by the run's engine (0 or 1 = one mutator).
	Mutators int `json:"mutators,omitempty"`
	// TraceWorkers sets the parallel GC trace lane count. Zero defaults to
	// one lane per mutator when Mutators > 1 and the serial trace
	// otherwise; 1 forces the serial trace even in multi-mutator runs.
	TraceWorkers int `json:"traceWorkers,omitempty"`
	// PauseBudget bounds each GC pause's marking work in simulated cycles
	// (0 = historical stop-the-world collections, bit for bit). Requires a
	// StickyImmix collector; on the baton engine marking proceeds in
	// bounded increments between mutator turns, on the threaded engine it
	// runs on one concurrent marker per trace lane (vm.Config.PauseBudget).
	PauseBudget int `json:"pauseBudget,omitempty"`

	// DynFailEvery injects one dynamic line failure every N iterations
	// through the kernel's fault-injection module (0 = none) — the §4.2
	// dynamic-failure path exercised at scale.
	DynFailEvery int `json:"dynFailEvery"`

	// Inject overrides the generated failure map with a custom template
	// (e.g. one produced by wearing out a simulated device, tab2). The
	// template is tiled across the pool. InjectName must uniquely identify
	// it for memoization. FailureRate should still state the template's
	// rate so compensation works.
	Inject     *failmap.Map `json:"-"`
	InjectName string       `json:"injectName,omitempty"`

	// Latency enables per-operation latency capture: the run allocates one
	// latency shard per mutator, scenario profiles (those with a Body, like
	// the kv server) record every operation into their shard, and the
	// Result carries the merged quantile report with GC-pause and
	// allocation-stall attribution. Suite benchmarks without per-op bodies
	// accept the flag but record nothing. Capture is deterministic on the
	// baton engine: same seed, byte-identical report.
	Latency bool `json:"latency,omitempty"`
	// WriteThrough backs the PCM pool with a live wearing device instead
	// of a static failure map: every heap store wears its line, lines fail
	// permanently when their endurance budget runs out, and bursts of
	// failures fill the device's failure buffer until writes stall — the
	// §3.1.1 backpressure path under real traffic. The device's endurance
	// is scaled so standard runs experience wear-out; combine with Latency
	// to see what the stalls do to tail latency.
	WriteThrough bool `json:"writeThrough,omitempty"`

	// Engine selects the execution engine: "" or "baton" is the
	// deterministic baton scheduler (the historical path, bit for bit);
	// "threaded" runs mutators on real OS-scheduled goroutines with
	// stop-the-world collections. Threaded results are not byte-comparable
	// to baton results — only engine-invariant outcomes (the live census,
	// DNF status, invariant counters) match.
	Engine string `json:"engine,omitempty"`
	// RecordWall measures host wall-clock time for the run and per GC
	// phase. Off by default: wall times are nondeterministic and must
	// never enter pinned reports.
	RecordWall bool `json:"recordWall,omitempty"`
	// Procs pins runtime.GOMAXPROCS for the run's duration (0 = leave it
	// alone). GOMAXPROCS is process-global, so configurations with Procs
	// set must execute under a serial runner (Workers = 1), as the
	// corescale experiment does.
	Procs int `json:"procs,omitempty"`

	// Policy selects the kernel's frame policy ("" = the paper's stock
	// behavior, bit for bit). It enters the memo key, so a policy variant
	// never aliases the stock run.
	Policy string `json:"policy,omitempty"`
}

// key returns rc's record key, derived from the full struct so a newly
// added field can never silently alias distinct configurations. The memo
// keys on rc.canonical().key().
func (rc RunConfig) key() string { return canonicalKey(rc) }

// canonical returns the configuration execute runs for rc: every field
// execute defaults or ignores is set to the value it runs with, so two
// configurations with one canonical form are one program and the memo
// runs it once. A rule belongs here only if it is an identity of execute's
// inputs, never because two programs happen to give equal results.
func (rc RunConfig) canonical() RunConfig {
	if rc.HeapMult == 0 {
		rc.HeapMult = 2
	}
	if rc.LineSize == 0 {
		rc.LineSize = core.DefaultLineSize
	}
	// GenerateClustered with one line per cluster draws one Float64 per
	// line and sets the bits GenerateUniform sets.
	if rc.ClusterGran == failmap.LineSize {
		rc.ClusterGran = 0
	}
	// Only a generated map is clustered.
	if rc.Inject != nil || rc.FailureRate == 0 {
		rc.ClusterGran, rc.ClusterPages = 0, 0
	}
	return rc
}

// Result summarizes one run.
type Result struct {
	Cycles      stats.Cycles `json:"cycles"`
	DNF         bool         `json:"dnf"`
	Collections int          `json:"collections"`
	FullGCs     int          `json:"fullGCs"`
	Borrows     int          `json:"borrows"`
	AvgFullGC   stats.Cycles `json:"avgFullGC"`
	MaxGC       stats.Cycles `json:"maxGC"`
	Heap        int          `json:"heapBytes"`
	DynFails    int          `json:"dynFails"`
	OSRemaps    int          `json:"osRemaps"`

	// Per-phase GC telemetry (§4.2 attribution): how collection time
	// splits between tracing and sweeping, and what the sweeps recovered.
	TraceCycles     stats.Cycles `json:"gcTraceCycles"`
	SweepCycles     stats.Cycles `json:"gcSweepCycles"`
	LinesReclaimed  uint64       `json:"gcLinesReclaimed"`
	BytesReclaimed  uint64       `json:"gcBytesReclaimed"`
	BlocksDefragged int          `json:"gcBlocksDefragmented"`
	EvacuatedBytes  uint64       `json:"gcEvacuatedBytes"`

	// Parallel-trace telemetry (zero for serial traces): total marking
	// work summed over all lanes versus the critical path simulated time
	// advances by. Their ratio is the trace-phase speedup.
	TraceWorkCycles stats.Cycles `json:"gcTraceWorkCycles,omitempty"`
	TraceCritCycles stats.Cycles `json:"gcTraceCritCycles,omitempty"`
	TraceSteals     uint64       `json:"gcTraceSteals,omitempty"`
	ParallelTraces  int          `json:"gcParallelTraces,omitempty"`

	// Wall-clock telemetry, populated only when RunConfig.RecordWall is
	// set: host nanoseconds for the whole run and for the GC phases. These
	// are honest host measurements — nondeterministic, machine-dependent,
	// and excluded from pinned reports and memo-key-stable comparisons.
	WallNS      int64 `json:"wallNS,omitempty"`
	WallGCNS    int64 `json:"wallGCNS,omitempty"`
	WallTraceNS int64 `json:"wallTraceNS,omitempty"`
	WallSweepNS int64 `json:"wallSweepNS,omitempty"`

	// Live-heap census, computed after a finished (non-DNF) run: the
	// engine-invariant summary the baton/threaded cross-check compares.
	// Zero for DNF runs — abort points differ legitimately across engines.
	LiveObjects int    `json:"liveObjects,omitempty"`
	LiveBytes   int    `json:"liveBytes,omitempty"`
	LiveHash    uint64 `json:"liveHash,omitempty"`

	// Pause digests the distribution of every mutator-visible GC pause:
	// whole collections for stop-the-world runs; individual bounded
	// increments and STW begin/final phases for incremental or concurrent
	// runs. PauseMark and PauseFinal split the latter two classes so the
	// pausecurve experiment can report per-phase quantiles; both are nil
	// for stop-the-world runs.
	Pause      *stats.QuantileSummary `json:"pause,omitempty"`
	PauseMark  *stats.QuantileSummary `json:"pauseMark,omitempty"`
	PauseFinal *stats.QuantileSummary `json:"pauseFinal,omitempty"`
	// Incremental/concurrent marking telemetry (zero for STW runs).
	MarkIncrements     int `json:"gcMarkIncrements,omitempty"`
	IncrementalCycles  int `json:"gcIncrementalCycles,omitempty"`
	ConcurrentCycles   int `json:"gcConcurrentCycles,omitempty"`
	ModbufHighWater    int `json:"gcModbufHighWater,omitempty"`
	ForcedModbufDrains int `json:"gcForcedModbufDrains,omitempty"`

	// Latency is the merged per-operation latency report, present only when
	// RunConfig.Latency was set and the benchmark recorded operations.
	Latency *stats.LatencyReport `json:"latency,omitempty"`

	// Counters is the complete per-event counter snapshot of the run's
	// clock, in event declaration order (every event appears, zero or
	// not, so two runs diff entry by entry).
	Counters []stats.Counter `json:"counters"`

	// Panic and PanicStack are set when the run crashed instead of
	// finishing; such a run is recorded as a DNF so one pathological
	// configuration cannot take down a whole parallel sweep.
	Panic      string `json:"panic,omitempty"`
	PanicStack string `json:"panicStack,omitempty"`
}

// Runner executes configurations with memoization (normalization baselines
// are shared across figures). The memo is keyed on the canonical form, so
// configurations that spell one program differently (LineSize 0 and 256)
// execute once. It is safe for concurrent use: the memo cache deduplicates
// in-flight executions singleflight-style, so a configuration requested by
// many goroutines at once executes exactly once and every caller receives
// the same Result.
type Runner struct {
	mu    sync.Mutex
	cache map[string]*flight

	// QuickDivisor, when above 1, divides every benchmark's default
	// iteration count (used by unit tests and testing.B wrappers). Set it
	// before any Run call; it is read concurrently afterwards.
	QuickDivisor int
	// Workers is the number of goroutines Prefetch and Collect spread
	// independent executions across. Zero means runtime.GOMAXPROCS(0);
	// 1 disables the parallel planning pass entirely.
	Workers int

	// Planning state: while planning, Run records configurations instead of
	// executing them, so an experiment body can declare its full config set
	// up front and assembly stays deterministic at any worker count.
	planning    bool
	planned     []RunConfig
	plannedKeys map[string]bool

	maps drawnMaps
}

// drawnMaps keeps the largest failure map a runner has generated for each
// seed, rate and cluster granularity. Both generators draw in line order,
// so a smaller pool's map is a prefix of a larger one's, and each map is
// drawn once per runner however many heap sizes and collectors share it.
// It lives and dies with its runner: a new runner draws every map again.
type drawnMaps struct {
	mu    sync.Mutex
	drawn map[drawKey]*failmap.Map
}

type drawKey struct {
	seed, gran int64
	rate       float64
}

// generate returns rc's generated failure map over poolPages pages: a copy
// of the prefix of the largest map drawn for rc's seed, rate and cluster
// granularity, drawn now when that is too small.
func (d *drawnMaps) generate(rc RunConfig, poolPages int) *failmap.Map {
	d.mu.Lock()
	defer d.mu.Unlock()
	k := drawKey{rc.Seed, int64(rc.ClusterGran), rc.FailureRate}
	m := d.drawn[k]
	if m == nil || m.Pages() < poolPages {
		m = failmap.New(poolPages * failmap.PageSize)
		rng := seeded.New(rc.Seed + 1)
		if rc.ClusterGran > 0 {
			failmap.GenerateClustered(m, rc.FailureRate, rc.ClusterGran, rng)
		} else {
			failmap.GenerateUniform(m, rc.FailureRate, rng)
		}
		if d.drawn == nil {
			d.drawn = make(map[drawKey]*failmap.Map)
		}
		d.drawn[k] = m
	}
	out := failmap.New(poolPages * failmap.PageSize)
	for p := range poolPages {
		out.CopyPage(p, m, p)
	}
	return out
}

// flight is one memo entry: done closes when res is valid, making
// concurrent requests for the same key wait instead of re-executing.
type flight struct {
	done chan struct{}
	res  Result
}

// NewRunner returns an empty memoizing runner.
func NewRunner() *Runner { return &Runner{cache: make(map[string]*flight)} }

// workers resolves the configured worker count.
func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// quicken applies the QuickDivisor to a configuration's iteration count
// before the memo key is computed, exactly as the serial runner did.
func (r *Runner) quicken(rc RunConfig) RunConfig {
	if rc.Iterations == 0 && r.QuickDivisor > 1 {
		if p := workload.ByName(rc.Bench); p != nil {
			rc.Iterations = p.Iterations / r.QuickDivisor
			if rc.Iterations < 50 {
				rc.Iterations = 50
			}
		}
	}
	return rc
}

// Run executes (or recalls) one configuration. During a planning pass it
// records the configuration and returns a zero Result instead.
func (r *Runner) Run(rc RunConfig) Result {
	rc = r.quicken(rc)
	// An unknown benchmark is API misuse, not a run-time crash: fail fast
	// here rather than letting safeExecute turn it into a DNF record.
	if workload.ByName(rc.Bench) == nil {
		panic(fmt.Sprintf("harness: unknown benchmark %q", rc.Bench))
	}
	r.mu.Lock()
	if r.planning {
		// The plan keeps the caller's configuration under its raw key: it
		// becomes the report's run records.
		if k := rc.key(); !r.plannedKeys[k] {
			r.plannedKeys[k] = true
			r.planned = append(r.planned, rc)
		}
		r.mu.Unlock()
		return Result{}
	}
	k := rc.canonical().key()
	if f, ok := r.cache[k]; ok {
		r.mu.Unlock()
		<-f.done // singleflight: wait for the one in-flight execution
		return f.res
	}
	f := &flight{done: make(chan struct{})}
	r.cache[k] = f
	r.mu.Unlock()
	f.res = safeExecute(rc, &r.maps)
	close(f.done)
	return f.res
}

// safeExecute converts a panicking execution into a failed (DNF) Result
// carrying the panic message and stack, so the sweep continues and the
// crash is visible in the run records instead of killing the process.
func safeExecute(rc RunConfig, maps *drawnMaps) (res Result) {
	defer func() {
		if p := recover(); p != nil {
			res = Result{
				DNF:        true,
				Panic:      fmt.Sprint(p),
				PanicStack: string(sched.PanicStack(p)),
			}
		}
	}()
	return executeFn(rc, maps)
}

// Prefetch executes the given configurations across the runner's worker
// pool and blocks until all are memoized. Duplicate configurations (and
// configurations already in flight) execute only once.
func (r *Runner) Prefetch(cfgs []RunConfig) {
	n := r.workers()
	if n > len(cfgs) {
		n = len(cfgs)
	}
	if n <= 1 {
		for _, rc := range cfgs {
			r.Run(rc)
		}
		return
	}
	ch := make(chan RunConfig)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rc := range ch {
				r.Run(rc)
			}
		}()
	}
	for _, rc := range cfgs {
		ch <- rc
	}
	close(ch)
	wg.Wait()
}

// Collect runs an experiment body with parallel execution while keeping
// its report deterministic. The body runs twice: a planning pass in which
// every Run/Normalized call merely records its configuration, a Prefetch
// over the deduplicated set (parallel when the runner has more than one
// worker), and the real assembly pass, which is then served entirely from
// the memo cache — so the rendered report is byte-identical at any worker
// count. The planning pass runs even with a single worker so the report's
// run-record set (everything the experiment declared, not just what a
// DNF-truncated assembly happened to touch) is identical at any worker
// count too.
func (r *Runner) Collect(body func() *Report) *Report {
	r.mu.Lock()
	r.planning = true
	r.planned = nil
	r.plannedKeys = make(map[string]bool)
	r.mu.Unlock()
	body() // recording pass; the report it builds is discarded
	r.mu.Lock()
	r.planning = false
	cfgs := r.planned
	r.planned, r.plannedKeys = nil, nil
	r.mu.Unlock()
	r.Prefetch(cfgs)
	rep := body()
	rep.Runs = r.records(cfgs)
	return rep
}

// executeFn indirects execute so tests can count executions.
var executeFn = execute

// execute runs rc's canonical form, the program the memo keys it by,
// taking its failure map from maps.
func execute(rc RunConfig, maps *drawnMaps) Result { return simulate(rc.canonical(), maps) }

// simulate runs rc exactly as given. HeapMult has no default below
// canonical, so a zero heap multiple panics here.
func simulate(rc RunConfig, maps *drawnMaps) Result {
	p := workload.ByName(rc.Bench)
	if p == nil {
		panic(fmt.Sprintf("harness: unknown benchmark %q", rc.Bench))
	}
	heapBytes := int(rc.HeapMult * float64(p.MinHeap()))

	// The failure rate the pool size and the heap budget make up for.
	compRate := rc.FailureRate
	if rc.NoCompensate {
		compRate = 0
	}
	poolPages := poolPagesFor(heapBytes, compRate)

	var inject *failmap.Map
	switch {
	case rc.Inject != nil:
		inject = tile(rc.Inject, poolPages)
	case rc.FailureRate > 0:
		inject = maps.generate(rc, poolPages)
		if rc.ClusterPages > 0 {
			inject = failmap.ClusterHardware(inject, rc.ClusterPages)
		}
	}

	// One lane per mutator unless the configuration names a count; a lone
	// mutator keeps the serial trace (DESIGN §16).
	traceWorkers := rc.TraceWorkers
	if traceWorkers == 0 && rc.Mutators > 1 {
		traceWorkers = rc.Mutators
	}

	// GOMAXPROCS is process-global: pinning it here is only meaningful
	// (and only safe) when the runner executes serially, which corescale
	// guarantees by using Workers = 1.
	if rc.Procs > 0 {
		prev := runtime.GOMAXPROCS(rc.Procs)
		defer runtime.GOMAXPROCS(prev)
	}

	spec := machine.Spec{
		Kernel: kernel.Config{
			PCMPages: poolPages, Inject: inject, Policy: rc.Policy,
		},
		VM: vm.Config{
			HeapBytes:    heapBytes,
			Compensate:   compRate > 0,
			Collector:    rc.Collector,
			LineSize:     rc.LineSize,
			FailureAware: rc.FailureAware,
			TraceWorkers: traceWorkers,
			Threaded:     rc.Engine == "threaded",
			WallClock:    rc.RecordWall,
			PauseBudget:  rc.PauseBudget,
			WriteThrough: rc.WriteThrough,
		},
	}
	// A write-through run backs the pool with a live wearing device: the
	// endurance is deliberately low (torture-suite scale) so standard-length
	// runs reach wear-out, raise failure interrupts, and exercise the
	// failure-buffer backpressure path under real heap traffic.
	if rc.WriteThrough {
		spec.Device = &pcm.Config{
			Endurance: 2048,
			Variation: 0.25,
			TrackData: true,
			Seed:      rc.Seed + 7,
		}
	}
	m, _ := machine.Boot(spec) // no image: nothing to restore or recover
	// The Result below copies everything it reports out of the heap, so the
	// next run may have this one's address space — also when this one panics.
	defer m.Close()
	v, kern, clock := m.VM, m.Kernel, m.Clock

	if rc.DynFailEvery > 0 {
		frng := rand.New(rand.NewSource(rc.Seed + 99))
		p.IterHook = func(it int, v *vm.VM) {
			if (it+1)%rc.DynFailEvery == 0 {
				kern.InjectRandomDynamicFailure(frng)
			}
		}
	}
	var rec *stats.LatencyRecorder
	if rc.Latency {
		rec = stats.NewLatencyRecorder(rc.Mutators)
		p.Latency = rec.Shard
	}
	var wallStart time.Time
	if rc.RecordWall {
		wallStart = time.Now()
	}
	err := p.RunMutators(v, rc.Iterations, rc.Mutators)
	// A marking cycle may still be open at the end of the run; complete it
	// so the census and the pause telemetry describe a fully marked heap.
	if err == nil {
		v.FinishMark()
	}
	var wallNS int64
	if rc.RecordWall {
		wallNS = time.Since(wallStart).Nanoseconds()
	}
	gs := v.GCStats()
	res := Result{
		Cycles:      clock.Now(),
		DNF:         err != nil,
		Collections: gs.Collections,
		FullGCs:     gs.FullCollections,
		Borrows:     kern.Borrows(),
		MaxGC:       gs.MaxGCCycles,
		Heap:        heapBytes,
		DynFails:    gs.DynamicFailures,
		OSRemaps:    v.OSRemaps,

		TraceCycles:     gs.TraceCycles,
		SweepCycles:     gs.SweepCycles,
		LinesReclaimed:  gs.LinesReclaimed,
		BytesReclaimed:  gs.BytesReclaimed,
		BlocksDefragged: gs.BlocksDefragmented,
		EvacuatedBytes:  gs.BytesEvacuated,

		TraceWorkCycles: gs.TraceWorkCycles,
		TraceCritCycles: gs.TraceCritCycles,
		TraceSteals:     gs.TraceSteals,
		ParallelTraces:  gs.ParallelTraces,

		WallNS:      wallNS,
		WallGCNS:    gs.WallGCNS,
		WallTraceNS: gs.WallTraceNS,
		WallSweepNS: gs.WallSweepNS,

		MarkIncrements:     gs.MarkIncrements,
		IncrementalCycles:  gs.IncrementalCycles,
		ConcurrentCycles:   gs.ConcurrentCycles,
		ModbufHighWater:    gs.ModbufHighWater,
		ForcedModbufDrains: gs.ForcedModbufDrains,

		Counters: clock.Snapshot(),
	}
	res.Pause = pauseSummary(&gs.PauseHist)
	res.PauseMark = pauseSummary(&gs.PauseMarkHist)
	res.PauseFinal = pauseSummary(&gs.PauseFinalHist)
	res.Latency = rec.Report()
	if err == nil {
		// Engine-invariant live census: only meaningful for runs that
		// finished (engines abort at legitimately different points on DNF).
		c := verify.Census(v.Model(), v.Roots())
		res.LiveObjects, res.LiveBytes, res.LiveHash = c.Objects, c.Bytes, c.Hash
	}
	if gs.FullCollections > 0 {
		res.AvgFullGC = gs.TotalGCCycles / stats.Cycles(gs.Collections)
	}
	return res
}

// pauseSummary digests a pause histogram, nil when it recorded no pause.
func pauseSummary(h *stats.Histogram) *stats.QuantileSummary {
	if h.Count() == 0 {
		return nil
	}
	s := stats.Summarize(h)
	return &s
}

// poolPagesFor sizes the PCM pool the system grants a heap at failure rate
// f: the raw equivalent of the compensated heap, 1.25·h/(1−f), plus modest
// slack. Perfect pages are therefore a *finite* resource — the supply
// Fig. 9(b)'s debit-credit accounting is about — and heavy perfect-page
// demand must eventually borrow DRAM and pay the penalty.
func poolPagesFor(heapBytes int, f float64) int {
	comp := 1 / (1 - f)
	return int(1.25*comp*float64(heapBytes))/failmap.PageSize + 64
}

// tile repeats a failure-map template across a pool of the given size.
func tile(tpl *failmap.Map, poolPages int) *failmap.Map {
	out := failmap.New(poolPages * failmap.PageSize)
	for p := 0; p < poolPages; p++ {
		out.CopyPage(p, tpl, p%tpl.Pages())
	}
	return out
}

// Normalized returns this config's time divided by the baseline's, or 0
// when either run did not finish. During a planning pass it records both
// configurations and returns 1, so callers that treat 0 as DNF (and stop
// asking for more configurations) still declare their full set.
func (r *Runner) Normalized(rc, baseline RunConfig) float64 {
	r.mu.Lock()
	planning := r.planning
	r.mu.Unlock()
	if planning {
		r.Run(rc)
		r.Run(baseline)
		return 1
	}
	a, b := r.Run(rc), r.Run(baseline)
	if a.DNF || b.DNF || b.Cycles == 0 {
		return 0
	}
	return float64(a.Cycles) / float64(b.Cycles)
}
