package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"wearmem"
	"wearmem/internal/chaos"
	"wearmem/internal/failmap"
	"wearmem/internal/harness"
	"wearmem/internal/kernel"
	"wearmem/internal/kv"
	"wearmem/internal/pcm"
	"wearmem/internal/stats"
	"wearmem/internal/vm"
	"wearmem/internal/workload"
)

// pinSeed is the seed the committed digests in pins.json were taken at (the
// seed ROADMAP pins `wearbench -exp all -quick` at).
const pinSeed = 42

//go:embed pins.json
var pinsJSON []byte

// pins maps experiment id to the sha256 of its quick text report at pinSeed.
var pins = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(pinsJSON, &m); err != nil {
		panic("bench: pins.json: " + err.Error())
	}
	return m
}()

// env is what a workload needs to know about the run it is part of.
type env struct {
	seed int64
	// scale shrinks every workload's input: 1 is the size BENCHMARK.json's
	// numbers are taken at, the warm-up runs at warmScale and the unit test
	// at 1/100.
	scale float64
	// procs is the number of OS threads allowed to do work: min(nproc, 4).
	procs int
	// tr is nil on the untraced pass.
	tr *tracer
	// notes collects failed checks made outside a rep.
	notes []string
}

func (e *env) note(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

func (e *env) traced() bool { return e.tr != nil }

// n scales a full-size count, never below floor.
func (e *env) n(full, floor int) int {
	n := int(float64(full) * e.scale)
	if n < floor {
		n = floor
	}
	return n
}

// warmScale is the input size of the warm-up rep that set-up ends with.
const warmScale = 0.05

// repOut is what one rep of a workload produced.
type repOut struct {
	ops    int // operations attempted (experiment reports, KV requests, campaigns)
	failed int // of those, how many failed
	sim    float64
	// p99/p999 are request-latency tails in simulated cycles over latOps
	// recorded requests; zero where the workload has no requests.
	p99, p999 float64
	latOps    uint64
	// fingerprint is everything that must repeat from rep to rep on a
	// baton-engine workload (digests, simulated numbers, counts).
	fingerprint string
	notes       []string          // failed correctness checks
	texts       map[string]string // report text per experiment id (figs, wearout)

	// Traced pass only.
	records []harness.RunRecord // every simulator run behind the rep
	layer   map[string]float64  // per-layer metrics the rep itself measured
}

func (o *repOut) fail(n int, format string, args ...any) {
	o.failed += n
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *repOut) set(name string, v float64) {
	if o.layer == nil {
		o.layer = map[string]float64{}
	}
	o.layer[name] = v
}

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name, why string
	// baton marks workloads that run only the deterministic engine: their
	// fingerprint must repeat exactly from rep to rep.
	baton bool
	rep   func(e *env) repOut
	// warm, when set, is the workload's warm-up in place of a reduced rep.
	warm func(e *env)
	// extra runs once on the traced pass, after the traced rep, and returns
	// per-layer metrics that need work of their own (replays, a parallel
	// pass, the wear loop).
	extra func(e *env, traced *repOut, tracedWall float64) map[string]float64
}

var workloads = []workloadDef{
	{
		name: "figs", baton: true,
		why: "the paper's evaluation (15 quick experiments, static failure maps): core alloc/trace/sweep, heap, failmap, kernel mmap; pcm idle",
		rep: func(e *env) repOut { return expRep(e, figIDs(e), 1) },
		extra: func(e *env, traced *repOut, wall float64) map[string]float64 {
			m := replay(e, traced.records, wall)
			done := e.tr.span("harness.parallel_pass")
			t0 := time.Now()
			expRep(&env{seed: e.seed, scale: e.scale, procs: e.procs}, figIDs(e), e.procs)
			par := time.Since(t0).Seconds()
			done()
			m["harness.parallel_speedup"] = wall / par
			return m
		},
	},
	{
		name: "wearout", baton: true,
		why:  "tab2, the largest single wall number: wearing devices to 10-50% failed; pcm Write/FailureRate/BufferLen dominate, core ~15%",
		rep:  func(e *env) repOut { return expRep(e, wearoutIDs(e), 1) },
		warm: func(e *env) { wearLoop(e, 128) },
		extra: func(e *env, traced *repOut, wall float64) map[string]float64 {
			m := replay(e, traced.records, wall)
			for k, v := range wearLoop(e, e.n(512, 16)) {
				m[k] = v
			}
			return m
		},
	},
	{
		name: "kv-read", baton: true,
		why: "95% reads, 4 baton mutators, healthy pool: vm read path, sched hand-offs, stats latency recorder; little allocation",
		rep: func(e *env) repOut {
			return kvHarnessRep(e, harness.RunConfig{
				Bench: kv.MustRegister(kvConfig(e.seed, 0.95)), Mutators: 4, Iterations: e.n(20000, 40),
			})
		},
	},
	{
		name: "kv-wear", baton: true,
		why:   "75% writes through the facade onto a wearing device: vm write-through, kernel.WriteLine, pcm.Write, failure buffer, up-calls, defrag GC",
		rep:   kvWearRep,
		extra: wearTwin,
	},
	{
		name: "kv-threaded",
		why:  "default mix, values up to one line, threaded engine, min(nproc,4) mutators: goroutines, ragged stop-the-world, stripe locks, clock-shard merges",
		rep: func(e *env) repOut {
			// Values stop at one Immix line (256 B). With the default 512 B
			// ceiling the threaded engine runs out of memory in 2-6% of
			// runs on a healthy pool (README, findings), and a workload
			// whose operations fail at random measures nothing.
			c := kvConfig(e.seed, 0)
			c.ValueMax = 256
			return kvHarnessRep(e, harness.RunConfig{
				Bench: kv.MustRegister(c), Engine: "threaded", Iterations: e.n(40000, 40),
				Mutators: e.procs, TraceWorkers: e.procs, Procs: e.procs,
			})
		},
	},
	{
		name: "torture", baton: true,
		why: "the correctness gate: fault-injection campaigns and power-cut recovery; verify, chaos and pcm images dominate, mutator paths are small",
		rep: tortureRep,
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// figIDs is every experiment of `wearbench -exp all` except tab2. More than
// half of a quick pass is fixed cost per simulator run (628 of them), which
// no divisor shrinks, so below full size the list itself shrinks to the
// cheapest figure and the two cheapest tables of the fifteen.
func figIDs(e *env) []string {
	if e.scale < 1 {
		return []string{"fig4", "tab1", "tab4"}
	}
	var ids []string
	for _, x := range harness.All() {
		if x.ID != "tab2" {
			ids = append(ids, x.ID)
		}
	}
	return ids
}

// wearoutIDs is tab2. tab2 ignores the shared runner and its divisor, so it
// cannot be shrunk through the public API: the warm-up is the benchmark's own
// small wear loop (the pcm calls tab2 spends its time in), and the unit test,
// which needs some rep at 1/100 size, runs the plumbing on tab4, the cheapest
// experiment that is all pcm.
func wearoutIDs(e *env) []string {
	if e.scale < 1 {
		return []string{"tab4"}
	}
	return []string{"tab2"}
}

// expRep runs the given experiments in order on one shared memoising
// runner, exactly as `wearbench -exp all -quick` does, and digests each text
// report.
func expRep(e *env, ids []string, parallel int) repOut {
	out := repOut{texts: map[string]string{}}
	r := harness.NewRunner()
	if e.scale < 1 {
		r.QuickDivisor = int(10 / e.scale)
	}
	sum := sha256.New()
	for _, id := range ids {
		done := e.tr.span("harness.exp." + id)
		t0 := time.Now()
		rep := harness.ByID(id).Run(harness.Options{Quick: true, Seed: e.seed, Parallel: parallel, Runner: r})
		wall := time.Since(t0).Seconds()
		emitDone := e.tr.span("harness.emit_text")
		var buf bytes.Buffer
		rep.Render(&buf)
		emitDone()
		done()

		out.ops++
		digest := sha256.Sum256(buf.Bytes())
		hexd := hex.EncodeToString(digest[:])
		sum.Write(digest[:])
		if e.seed == pinSeed && e.scale == 1 && hexd != pins[id] {
			out.fail(1, "%s: report digest %s differs from pins.json %s", id, hexd, pins[id])
		}
		for _, rr := range rep.Runs {
			out.sim += float64(rr.Result.Cycles)
			if rr.Result.Panic != "" {
				out.fail(1, "%s: run %s panicked: %s", id, rr.Key, rr.Result.Panic)
			}
		}
		out.texts[id] = buf.String()
		if e.traced() {
			out.set("harness.exp."+id+".wall_s", wall)
			out.records = append(out.records, rep.Runs...)
		}
	}
	out.fingerprint = hex.EncodeToString(sum.Sum(nil))
	return out
}

// writeTexts saves the report texts for the driver's whole-suite digest.
func writeTexts(dir string, texts map[string]string) error {
	for id, text := range texts {
		if err := os.WriteFile(filepath.Join(dir, "report-"+id+".txt"), []byte(text), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// replay re-executes every recorded configuration serially with wall-clock
// recording on, which is the only way to see inside an experiment from
// outside the harness: what share of the experiment's wall was simulator
// runs, and how those runs split between mutator and collector.
func replay(e *env, records []harness.RunRecord, expWall float64) map[string]float64 {
	done := e.tr.span("harness.replay")
	defer done()
	var a attribution
	seen := map[string]bool{}
	for _, rec := range records {
		if seen[rec.Key] {
			continue // shared baselines appear in several experiments' records
		}
		seen[rec.Key] = true
		rc := rec.Config
		rc.RecordWall = true
		runDone := e.tr.span("harness.run")
		a.add(harness.NewRunner().Run(rc))
		runDone()
	}
	m := a.metrics()
	m["harness.runs"] = float64(a.runs)
	if expWall > 0 {
		m["harness.execute_share"] = a.wallNS / 1e9 / expWall
		m["harness.overhead_s"] = expWall - a.wallNS/1e9
	}
	return m
}

// kvOpsPerIter is kv.Config's default OpsPerIter, which every KV workload
// here leaves alone.
const kvOpsPerIter = 128

// kvConfig draws the scenario from the seed. The key stream's rng is seeded
// inside the program from the scenario name and cannot be reached from
// outside, so the seed moves what it can: the popularity skew, inside the
// YCSB-style band around the default 0.99 (three decimals, so the name keeps
// its length and the rng its seed).
func kvConfig(seed int64, readRatio float64) kv.Config {
	k := (seed%9 + 9) % 9
	return kv.Config{ReadRatio: readRatio, Zipf: float64(981+k) / 1000}
}

// kvHarnessRep runs the KV scenario through the harness on a healthy pool.
// Healthy on purpose: with a static failure map the scenario runs out of
// memory on most seeds (README, findings).
func kvHarnessRep(e *env, rc harness.RunConfig) repOut {
	rc.HeapMult = 2
	rc.Collector = vm.StickyImmix
	rc.FailureAware = true
	rc.Latency = true
	rc.Seed = e.seed
	rc.RecordWall = e.traced()
	done := e.tr.span("harness.run")
	t0 := time.Now()
	res := harness.NewRunner().Run(rc)
	wall := time.Since(t0).Seconds()
	done()

	var out repOut
	out.sim = float64(res.Cycles)
	out.kvLatency(rc.Iterations*kvOpsPerIter, res.Latency, wall, e.traced())
	if res.DNF {
		out.notes = append(out.notes, "run did not finish: "+res.Panic)
	}
	out.fingerprint = fmt.Sprint(res.Cycles, res.Collections, out.p99, out.p999, res.LiveHash)
	if e.traced() {
		out.records = []harness.RunRecord{{Config: rc, Result: res}}
		var a attribution
		a.add(res)
		for k, v := range a.metrics() {
			out.set(k, v)
		}
	}
	return out
}

// kvLatency fills the request accounting from a latency report: requests
// that were never recorded (the run aborted) count as failed.
func (o *repOut) kvLatency(attempted int, lr *stats.LatencyReport, wall float64, traced bool) {
	o.ops = attempted
	if lr == nil {
		o.fail(attempted, "no latency report: no request completed")
		return
	}
	if done := int(lr.Ops); done < attempted {
		o.fail(attempted-done, "%d of %d requests completed", done, attempted)
	}
	o.p99, o.p999, o.latOps = float64(lr.Overall.P99), float64(lr.Overall.P999), lr.Ops
	if !traced {
		return
	}
	o.set("kv.host_ns_per_op", wall*1e9/float64(lr.Ops))
	o.set("kv.gc_affected_ops", float64(lr.GCPause.Ops))
	o.set("kv.stall_affected_ops", float64(lr.AllocStall.Ops))
	o.set("kv.sim_p99_cycles", o.p99)
	o.set("kv.sim_p999_cycles", o.p999)
	if lr.TotalCycles > 0 {
		o.set("kv.gc_share", float64(lr.GCPauseCycles)/float64(lr.TotalCycles))
		o.set("kv.stall_share", float64(lr.AllocStallCycles)/float64(lr.TotalCycles))
	}
}

// The kv-wear stack. The heap is 6x the scenario minimum because the
// scenario runs out of memory after a handful of dynamic failures on one
// seed in six at 3-4x (README, findings); at 6x, 60 of 60 seeds complete.
const (
	wearHeapMult  = 6
	wearPoolMult  = 4 // pool pages per heap page
	wearEndurance = 512
	wearVariation = 0.25
	wearMutators  = 4
)

// kvWearRep drives the write-heavy scenario through the public facade onto a
// wearing device with write-through stores. It must be the facade:
// harness.execute builds the device for RunConfig.WriteThrough but never
// forwards the flag to the VM, so the harness path wears nothing.
func kvWearRep(e *env) repOut {
	name := kv.MustRegister(kvConfig(e.seed, 0.25))
	its := e.n(5000, 40)
	b := wearmem.BenchmarkByName(name)
	heapBytes := wearHeapMult * b.MinHeap()

	var out repOut
	done := e.tr.span("wearmem.open")
	rt, err := wearmem.Open(
		wearmem.WithHeapBytes(heapBytes),
		wearmem.WithPoolPages(wearPoolMult*heapBytes/wearmem.PageSize),
		wearmem.WithWearingDevice(wearEndurance, wearVariation),
		wearmem.WithWriteThrough(),
		wearmem.WithMutators(wearMutators),
		wearmem.WithLatencyCapture(),
		wearmem.WithSeed(e.seed),
	)
	done()
	if err != nil {
		out.ops = its * kvOpsPerIter
		out.fail(out.ops, "open: %v", err)
		return out
	}
	done = e.tr.span("wearmem.run_benchmark")
	t0 := time.Now()
	err = rt.RunBenchmark(b, its)
	wall := time.Since(t0).Seconds()
	done()
	if err != nil {
		out.notes = append(out.notes, "run did not finish: "+err.Error())
	}
	out.sim = float64(rt.Clock.Now())
	out.kvLatency(its*kvOpsPerIter, rt.LatencyReport(), wall, e.traced())
	writes, failedLines := rt.Device.TotalWrites(), rt.Device.FailedLines()
	if e.scale == 1 && (writes == 0 || failedLines == 0) {
		out.fail(0, "device saw %d writes and %d failed lines: the run is not measuring write-through wear", writes, failedLines)
	}
	gcs := rt.VM.GCStats()
	out.fingerprint = fmt.Sprint(rt.Clock.Now(), writes, failedLines, gcs.Collections, out.p99, out.p999)
	if e.traced() {
		out.set("pcm.writes", float64(writes))
		out.set("pcm.failed_lines", float64(failedLines))
		out.set("pcm.stall_events", float64(rt.Clock.Count(stats.EvFailBufStall)))
	}
	return out
}

// wearTwin assembles the kv-wear stack layer by layer, exactly as
// wearmem.Open does, with the one addition of vm.Config.WallClock: the
// facade has no wall-clock option, so the host split between mutator and
// collector comes from this twin. Its simulated time must equal the facade
// run's.
func wearTwin(e *env, traced *repOut, _ float64) map[string]float64 {
	name := kv.MustRegister(kvConfig(e.seed, 0.25))
	its := e.n(5000, 40)
	heapBytes := wearHeapMult * wearmem.BenchmarkByName(name).MinHeap()
	poolPages := wearPoolMult * heapBytes / failmap.PageSize
	clock := stats.NewClock(stats.DefaultCosts())
	done := e.tr.span("pcm.new_device")
	dev := pcm.NewDevice(pcm.Config{
		Size: poolPages * failmap.PageSize, Endurance: wearEndurance, Variation: wearVariation,
		TrackData: true, Seed: e.seed,
	}, clock)
	done()
	done = e.tr.span("kernel.new")
	kern := kernel.New(kernel.Config{PCMPages: poolPages, Device: dev, Clock: clock})
	done()
	done = e.tr.span("vm.new")
	v := vm.New(vm.Config{
		HeapBytes: heapBytes, Collector: vm.StickyImmix, FailureAware: true,
		WriteThrough: true, WallClock: true, Kernel: kern, Clock: clock,
	})
	done()
	p := workload.ByName(name)
	p.Latency = stats.NewLatencyRecorder(wearMutators).Shard
	done = e.tr.span("workload.run_mutators")
	t0 := time.Now()
	err := p.RunMutators(v, its, wearMutators)
	wall := time.Since(t0)
	done()
	if err != nil || float64(clock.Now()) != traced.sim {
		e.note("hand-wired twin ran %d cycles (err %v), facade %.0f", clock.Now(), err, traced.sim)
	}
	gs := v.GCStats()
	var a attribution
	a.add(harness.Result{
		Collections: gs.Collections, FullGCs: gs.FullCollections,
		WallNS: wall.Nanoseconds(), WallGCNS: gs.WallGCNS, WallTraceNS: gs.WallTraceNS, WallSweepNS: gs.WallSweepNS,
		Counters: clock.Snapshot(),
	})
	return a.metrics()
}

// tortureRep is a reduced torture sweep plus a power-cut sweep, both on the
// baton engine only, so that kv-threaded stays the one workload whose
// numbers depend on goroutine scheduling and a failed campaign here is
// always a bug, never a flake.
func tortureRep(e *env) repOut {
	opt := chaos.Options{Seeds: 2, Workers: 1, SeedBase: e.seed, Iters: e.n(2500, 100)}
	var crashCfgs []chaos.TortureConfig
	for _, c := range chaos.CrashConfigs() {
		if !c.Threaded {
			crashCfgs = append(crashCfgs, c)
		}
	}
	if e.scale < 1 {
		opt.Seeds = 1
		opt.Configs = chaos.AllConfigs()[:1]
		crashCfgs = crashCfgs[:1]
	}

	var marks []time.Time
	if e.traced() {
		opt.Logf = func(string, ...interface{}) { marks = append(marks, time.Now()) }
	}
	campaigns := func(name string, start time.Time) []float64 {
		var ms []float64
		for _, m := range marks {
			e.tr.add(name, start, m)
			ms = append(ms, m.Sub(start).Seconds()*1e3)
			start = m
		}
		marks = marks[:0]
		return ms
	}

	var out repOut
	done := e.tr.span("chaos.run")
	t0 := time.Now()
	sum := chaos.Run(opt)
	runMS := campaigns("chaos.campaign", t0)
	done()

	crashOpt := opt
	crashOpt.Seeds = 1
	crashOpt.Configs = crashCfgs
	done = e.tr.span("chaos.crash_sweep")
	t0 = time.Now()
	crash := chaos.CrashSweep(crashOpt)
	crashMS := campaigns("chaos.crash_campaign", t0)
	done()

	out.ops = sum.Campaigns + crash.Campaigns
	verifications := 0
	for _, r := range sum.Failures() {
		out.fail(1, "campaign %s seed %d: %s", r.Config, r.Seed, r.Failure)
	}
	for _, r := range sum.Records {
		verifications += r.Verifications
	}
	for _, r := range crash.Failures() {
		out.fail(1, "crash campaign %s seed %d cut %s: %s", r.Config, r.Seed, r.Cut, r.Failure)
	}
	var recovered, recoveryCycles int64
	for _, r := range crash.Records {
		verifications += r.Verifications
		if r.CutFired && !r.WornOut {
			recovered++
			recoveryCycles += r.RecoveryCycles
		}
	}
	// The simulated time a torture rep exposes is the recovery pass: mean
	// simulated cycles of Kernel.Recover per power cut that fired.
	if recovered > 0 {
		out.sim = float64(recoveryCycles) / float64(recovered)
	}
	out.fingerprint = fmt.Sprint(verifications, crash.CutsFired, recoveryCycles)
	if e.traced() {
		out.set("chaos.campaign.ms_p50", stats.Median(runMS))
		out.set("chaos.campaign.ms_max", stats.Max(runMS))
		out.set("chaos.crash_campaign.ms_p50", stats.Median(crashMS))
		out.set("verify.verifications", float64(verifications))
	}
	return out
}

// wearLoop is the benchmark's own copy of the loop tab2 spends most of its
// wall in (harness.wornFailureMap): skewed writes onto a small start-gap
// device until a quarter of its lines have failed, through the public pcm
// API. One iteration in 256 is traced, one span per call, which is what
// gives each call kind a host cost in situ (mutex, cache state and all).
func wearLoop(e *env, pages int) map[string]float64 {
	done := e.tr.span("pcm.wear_loop")
	defer done()
	dev := pcm.NewDevice(pcm.Config{
		Size: pages * failmap.PageSize, Endurance: 300, Variation: 0.15,
		WearLeveling: pcm.StartGap, GapInterval: 1, Seed: e.seed,
	}, nil)
	rng := rand.New(rand.NewSource(e.seed + 7))
	hot := dev.Lines() / 4
	buf := make([]byte, failmap.LineSize)
	kinds := []string{"pcm.failure_rate", "pcm.write", "pcm.buffer_len", "pcm.drain"}
	var ns [4][]float64
	timed := func(kind int, f func()) {
		t0 := time.Now()
		f()
		t1 := time.Now()
		e.tr.add(kinds[kind], t0, t1)
		ns[kind] = append(ns[kind], float64(t1.Sub(t0).Nanoseconds()))
	}
	for it := 0; ; it++ {
		sampled := it%256 == 0
		var rate float64
		if sampled {
			timed(0, func() { rate = dev.FailureRate() })
		} else {
			rate = dev.FailureRate()
		}
		if rate >= 0.25 {
			break
		}
		l := rng.Intn(hot)
		if rng.Intn(10) == 0 {
			l = rng.Intn(dev.Lines())
		}
		if !sampled {
			dev.Write(l, buf)
			for dev.BufferLen() > 0 {
				dev.Drain()
			}
			continue
		}
		timed(1, func() { dev.Write(l, buf) })
		for {
			var n int
			timed(2, func() { n = dev.BufferLen() })
			if n == 0 {
				break
			}
			timed(3, func() { dev.Drain() })
		}
	}
	m := map[string]float64{}
	for k, name := range kinds {
		m[name+".ns"] = stats.Median(ns[k])
	}
	return m
}
