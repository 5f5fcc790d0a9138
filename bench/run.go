package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wearmem/internal/stats"
)

// runOpts is one measured run of one workload.
type runOpts struct {
	workload *workloadDef
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	out      string // directory for result, report and trace files; "" writes none
	// setupRuns is how many child processes time set-up; 0 times this
	// process's own set-up once (the unit test, which has no binary to spawn).
	setupRuns int
	// skipLadder leaves the ladder out of a traced run: the ladder does not
	// depend on the workload, so the whole ledger and the unit test run it
	// once, not once per workload. A single traced run includes it, because
	// the benchmark driver wants every per-layer metric on every result line.
	skipLadder bool
	log        io.Writer // per-metric lines for people
}

// workloadResult is one workload's entry in result.json, and the file a
// child process leaves in -out for the driver to collect.
type workloadResult struct {
	Name      string            `json:"name"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Notes     []string          `json:"notes,omitempty"`
	Reps      int               `json:"reps"`
	EndToEnd  map[string]sample `json:"end_to_end,omitempty"`
	PerLayer  map[string]value  `json:"per_layer,omitempty"`
}

// resultLine is the last line of standard output: the form the benchmark
// driver reads.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *workloadResult) line() resultLine {
	l := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	if r.Trace {
		for _, m := range perLayer() {
			l.Metrics[m.Name] = value{r.PerLayer[m.Name].Value, m.Unit}
		}
		return l
	}
	for _, m := range endToEnd {
		s := r.EndToEnd[m.Name]
		l.Metrics[m.Name] = value{s.Value, s.Unit}
	}
	return l
}

func workProcs() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// setUp is what a run does before its first timed rep: register the
// scenario and warm up, with one rep at warmScale unless the workload has a
// warm-up of its own.
func setUp(w *workloadDef, seed int64, scale float64) {
	e := &env{seed: seed, scale: math.Min(scale, warmScale), procs: workProcs()}
	if w.warm != nil {
		w.warm(e)
		return
	}
	w.rep(e)
}

// timeSetUp reports set-up time in seconds, one sample per fresh process:
// process start, package initialisation, registration and the warm-up rep
// are all inside the interval, so work moved from a rep into any of them
// shows here.
func timeSetUp(o runOpts, probe *hostProbe) ([]float64, error) {
	before := probe.loadNS()
	if o.setupRuns == 0 {
		t0 := time.Now()
		setUp(o.workload, o.seed, o.scale)
		return []float64{atReference(time.Since(t0).Seconds(), before, probe.loadNS())}, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < o.setupRuns; i++ {
		cmd := exec.Command(exe, "-workload", o.workload.name, "-seed", strconv.FormatInt(o.seed, 10), "-setup-only")
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		wall := time.Since(t0).Seconds()
		after := probe.loadNS()
		out = append(out, atReference(wall, before, after))
		before = after
	}
	return out, nil
}

// hostCounters is the Go runtime's own account of the process so far.
type hostCounters struct {
	allocBytes    uint64
	gcs           uint32
	gcCPU, allCPU float64
}

func readHost() hostCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	h := hostCounters{allocBytes: ms.TotalAlloc, gcs: ms.NumGC}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		h.gcCPU, h.allCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return h
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// repSamples accumulates the per-rep samples of a pass.
type repSamples struct {
	rawWall                       []float64 // host seconds as measured
	wall, opsPerS, sim, p99, p999 []float64
	attempted, failed             int
	notes                         []string
	first                         string // first rep's fingerprint
	last                          repOut
}

// minReps is the fewest reps an end-to-end run reports a median of. Three,
// so that one slow rep of wearout (10 s each) does not move the median.
const minReps = 3

// timedReps runs reps until budget seconds have passed (at least minReps),
// collecting a sample of everything per rep. With a probe, each rep's wall is
// reported at the reference host speed, from the readings on either side of
// it; without one (the traced pass, whose walls are set against span times)
// it is the host's own.
func timedReps(w *workloadDef, e *env, probe *hostProbe, budget float64, minReps int, s *repSamples) {
	start := time.Now()
	var before float64
	if probe != nil {
		before = probe.loadNS()
	}
	for len(s.wall) < minReps || time.Since(start).Seconds() < budget {
		runtime.GC() // every rep starts from a collected host heap
		t0 := time.Now()
		out := w.rep(e)
		wall := time.Since(t0).Seconds()
		s.rawWall = append(s.rawWall, wall)
		if probe != nil {
			after := probe.loadNS()
			wall = atReference(wall, before, after)
			before = after
		}
		s.wall = append(s.wall, wall)
		s.opsPerS = append(s.opsPerS, float64(out.ops-out.failed)/wall)
		s.sim = append(s.sim, out.sim)
		if out.latOps > 0 {
			s.p99 = append(s.p99, out.p99)
			s.p999 = append(s.p999, out.p999)
		}
		s.attempted += out.ops
		s.failed += out.failed
		s.notes = append(s.notes, out.notes...)
		if s.first == "" {
			s.first = out.fingerprint
		} else if w.baton && out.fingerprint != s.first {
			s.notes = append(s.notes, fmt.Sprintf("rep %d is not the rep before it: fingerprint %s, first rep %s",
				len(s.wall), out.fingerprint, s.first))
		}
		s.last = out
	}
}

// runWorkload measures one workload once: the end-to-end metrics with
// tracing off, or (trace) the per-layer metrics.
func runWorkload(o runOpts) (*workloadResult, error) {
	res := &workloadResult{Name: o.workload.name, Seed: o.seed, Trace: o.trace}
	e := &env{seed: o.seed, scale: o.scale, procs: workProcs()}
	measure, metrics := res.measureEndToEnd, ledgerMetrics()
	if o.trace {
		measure, metrics = res.measureLayers, perLayer()
	}
	if err := measure(o, e); err != nil {
		return nil, err
	}
	res.print(o.log, metrics)
	return res, nil
}

// measureEndToEnd times set-up, then reps with tracing off until the run's
// seconds are up, and reports the median of each metric over the reps.
func (r *workloadResult) measureEndToEnd(o runOpts, e *env) error {
	w := o.workload
	probe, err := newHostProbe(o.scale)
	if err != nil {
		return err
	}
	defer probe.close()
	setup, err := timeSetUp(o, probe)
	if err != nil {
		return err
	}
	if o.setupRuns > 0 {
		setUp(w, o.seed, o.scale) // this process's own warm-up, not a sample
	}
	var s repSamples
	timedReps(w, e, probe, o.seconds, minReps, &s)
	r.fill(&s)
	unit := map[string]string{}
	for _, m := range ledgerMetrics() {
		unit[m.Name] = m.Unit
	}
	r.EndToEnd = map[string]sample{}
	put := func(name string, xs []float64) {
		if len(xs) > 0 {
			r.EndToEnd[name] = sample{stats.Median(xs), unit[name], xs}
		}
	}
	put("setup_s", setup)
	put("wall_s", s.wall)
	put("raw_wall_s", s.rawWall)
	put("ops_per_s", s.opsPerS)
	put("sim_cycles", s.sim)
	put("sim_p99_cycles", s.p99)
	put("sim_p999_cycles", s.p999)
	put("peak_rss_mb", []float64{peakRSSMB() - probe.residentMB()})
	put("fail_ratio", []float64{float64(s.failed) / float64(s.attempted)})
	if o.out != "" && len(s.last.texts) > 0 {
		return writeTexts(o.out, s.last.texts)
	}
	return nil
}

// measureLayers is the traced run: a few untraced reps for the overhead
// ratio's base, the same reps traced, whatever per-layer work the workload
// needs beyond its reps, then the ladder.
func (r *workloadResult) measureLayers(o runOpts, e *env) error {
	w := o.workload
	setUp(w, o.seed, o.scale)
	var plain, traced repSamples
	timedReps(w, e, nil, o.seconds/4, 1, &plain)
	e.tr = newTracer(w.name)
	before := readHost()
	timedReps(w, e, nil, o.seconds/4, 1, &traced)
	after := readHost()
	r.fill(&plain)
	r.fill(&traced)

	layer := map[string]float64{}
	merge := func(m map[string]float64) {
		for k, v := range m {
			layer[k] = v
		}
	}
	merge(traced.last.layer)
	reps := float64(len(traced.wall))
	layer["heap.host_alloc_mb"] = float64(after.allocBytes-before.allocBytes) / reps / 1e6
	layer["host.gc_count"] = float64(after.gcs-before.gcs) / reps
	if cpu := after.allCPU - before.allCPU; cpu > 0 {
		layer["host.gc_cpu_fraction"] = (after.gcCPU - before.gcCPU) / cpu
	}
	tracedWall := stats.Median(traced.wall)
	layer["bench.trace_overhead_ratio"] = tracedWall / stats.Median(plain.wall)
	if w.extra != nil {
		merge(w.extra(e, &traced.last, tracedWall))
	}
	if !o.skipLadder {
		merge(runLadder(e.tr, o.scale))
	}
	r.Notes = append(r.Notes, e.notes...)
	r.Correct = len(r.Notes) == 0

	r.PerLayer = map[string]value{}
	for _, m := range perLayer() {
		if o.skipLadder && strings.HasPrefix(m.Name, "ladder.") {
			continue
		}
		r.PerLayer[m.Name] = value{layer[m.Name], m.Unit}
		delete(layer, m.Name)
	}
	for k := range layer {
		return fmt.Errorf("bench: %s produced undeclared per-layer metric %q", w.name, k)
	}
	if o.out != "" {
		return e.tr.write(filepath.Join(o.out, "trace-"+w.name+".json"))
	}
	return nil
}

func (r *workloadResult) fill(s *repSamples) {
	r.Reps += len(s.wall)
	r.Attempted += s.attempted
	r.Failed += s.failed
	r.Notes = append(r.Notes, s.notes...)
	r.Correct = len(r.Notes) == 0
}

// print writes one "name value unit" line per metric, in declaration order.
func (r *workloadResult) print(w io.Writer, ms []metric) {
	if w == nil {
		return
	}
	fmt.Fprintf(w, "# %s seed=%d trace=%v reps=%d attempted=%d failed=%d correct=%v\n",
		r.Name, r.Seed, r.Trace, r.Reps, r.Attempted, r.Failed, r.Correct)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", n)
	}
	for _, m := range ms {
		if r.Trace {
			if v, ok := r.PerLayer[m.Name]; ok {
				fmt.Fprintf(w, "%-34s %16.6g %s\n", m.Name, v.Value, v.Unit)
			}
			continue
		}
		s, ok := r.EndToEnd[m.Name]
		if !ok {
			continue // a tail on a workload without requests
		}
		fmt.Fprintf(w, "%-34s %16.6g %-7s n=%d min=%.6g max=%.6g\n",
			m.Name, s.Value, s.Unit, len(s.Samples), stats.Min(s.Samples), stats.Max(s.Samples))
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
