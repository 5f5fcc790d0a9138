// Command wearbench regenerates the paper's figures and tables.
//
// Usage:
//
//	wearbench -list                 enumerate experiments
//	wearbench -exp fig4             run one experiment (full suite)
//	wearbench -exp all              run every experiment
//	wearbench -exp fig4 -quick      reduced benchmark set and iterations
//	wearbench -exp fig4 -format json
//	                                emit the schema-versioned report document
//	wearbench -exp all -out runs/   persist each report's JSON document
//	wearbench -explain "rate=0.25,cluster=2 vs base" -bench pmd -quick
//	                                diff two configurations' counter snapshots
//	wearbench -calibrate            re-derive benchmark minimum heaps
//	wearbench -bench pmd -mult 2 -rate 0.25 -cluster 2
//	                                run a single configuration and dump stats
//	wearbench -latency              KV request-latency quantiles across failure
//	                                regimes on both engines (-engine to pick one)
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"wearmem/internal/failmap"
	"wearmem/internal/harness"
	"wearmem/internal/harness/cliconfig"
	"wearmem/internal/kernel"
	"wearmem/internal/machine"
	"wearmem/internal/stats"
	"wearmem/internal/vm"
	"wearmem/internal/workload"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list experiments")
		exp       = flag.String("exp", "", "experiment id (fig3..fig10, tab1..tab6, all)")
		format    = flag.String("format", "text", "output format: "+strings.Join(harness.Formats(), ", "))
		outDir    = flag.String("out", "", "persist each report's JSON document into this directory")
		csvDir    = flag.String("csv", "", "also write each table as CSV into this directory")
		quick     = flag.Bool("quick", false, "reduced benchmarks and iterations")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for independent configurations")
		calibrate = flag.Bool("calibrate", false, "binary-search benchmark minimum heaps")
		explain   = flag.String("explain", "", `diff two configurations: "k=v,... vs k=v,..." over the -bench/-mult/... base ("base" = no overrides)`)
		trials    = flag.Int("trials", 1, "failure-map seeds to aggregate (mean and 95% CI)")

		rc   harness.RunConfig
		prof cliconfig.Profiling
	)
	cliconfig.Register(flag.CommandLine, &rc)
	prof.Register(flag.CommandLine)
	// A bad flag value is one line naming the flag, not that line and the
	// whole flag list after it.
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	usage := flag.Usage
	flag.Usage = func() {}
	if err := flag.CommandLine.Parse(os.Args[1:]); errors.Is(err, flag.ErrHelp) {
		usage()
		os.Exit(0)
	} else if err != nil {
		os.Exit(2)
	}
	flag.Usage = usage

	stop, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stop()

	em, err := harness.EmitterFor(*format)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	switch {
	case *list:
		for _, e := range harness.All() {
			fmt.Printf("%-8s %-7s %s\n", e.ID, e.Section, e.Title)
		}
		for _, e := range harness.Extras() {
			fmt.Printf("%-8s %-7s %s (excluded from -exp all)\n", e.ID, e.Section, e.Title)
		}
	case *calibrate:
		runCalibration()
	case *explain != "":
		runExplain(*explain, rc, *quick, *parallel, em, *outDir)
	case rc.Bench != "":
		if status := runSingle(rc, *trials, *parallel); status != 0 {
			stop() // os.Exit runs no deferred call
			os.Exit(status)
		}
	case rc.Latency:
		runLatency(rc, *quick, *parallel, em, *outDir, *csvDir)
	case *exp == "all":
		// One runner for every experiment: the normalization baselines the
		// figures share memoize once instead of once per figure.
		opt := harness.Options{Quick: *quick, Seed: rc.Seed,
			Parallel: *parallel, Runner: harness.NewRunner()}
		total := time.Now()
		for _, e := range harness.All() {
			start := time.Now()
			rep := e.Run(opt)
			fmt.Fprintf(os.Stderr, "# %-7s %6.2fs wall (%d workers)\n",
				e.ID, time.Since(start).Seconds(), *parallel)
			emit(em, rep)
			writeCSVs(rep, *csvDir)
			persist(rep, *outDir)
			fmt.Println()
		}
		fmt.Fprintf(os.Stderr, "# total   %6.2fs wall\n", time.Since(total).Seconds())
	case *exp != "":
		e := harness.ByID(*exp)
		if e == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		start := time.Now()
		rep := e.Run(harness.Options{Quick: *quick, Seed: rc.Seed, Parallel: *parallel})
		fmt.Fprintf(os.Stderr, "# %-7s %6.2fs wall (%d workers)\n",
			e.ID, time.Since(start).Seconds(), *parallel)
		emit(em, rep)
		writeCSVs(rep, *csvDir)
		persist(rep, *outDir)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// emit stamps honest host metadata on the report (cores, GOMAXPROCS, Go
// version — the JSON emitter carries it; text output ignores it, keeping
// pinned reports host-independent) and renders it to stdout.
func emit(em harness.Emitter, rep *harness.Report) {
	stampMachine(rep)
	if err := em.Emit(os.Stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

func stampMachine(rep *harness.Report) {
	if rep.Machine == nil {
		hm := harness.HostMachine()
		rep.Machine = &hm
	}
}

// persist writes the report's schema-versioned JSON document (tables plus
// every run record) to <dir>/<id>.json.
func persist(rep *harness.Report, dir string) {
	if dir == "" {
		return
	}
	stampMachine(rep)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	f, err := os.Create(filepath.Join(dir, rep.ID+".json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer f.Close()
	jem, _ := harness.EmitterFor("json")
	if err := jem.Emit(f, rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

// runLatency is the wear-aware KV server latency mode: the kv scenario
// swept across failure regimes (healthy, static, dynamic, write-through
// with failure-buffer backpressure), reporting request-latency quantiles
// with GC-pause and allocation-stall attribution. With no -engine both
// engines run; the baton table is byte-identical across same-seed repeats.
func runLatency(rc harness.RunConfig, quick bool, parallel int, em harness.Emitter, outDir, csvDir string) {
	engines := []string{"", "threaded"}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "engine" {
			engines = []string{rc.Engine}
		}
	})
	o := harness.Options{Quick: quick, Seed: rc.Seed}
	r := harness.NewRunner()
	r.Workers = parallel
	rep := r.Collect(func() *harness.Report {
		var tables []harness.Table
		for _, engine := range engines {
			tables = append(tables, harness.LatencyStudy(r, o, engine, rc.Mutators, rc.Iterations))
		}
		return &harness.Report{
			ID:     "latency",
			Title:  "Wear-aware KV server tail latency across failure regimes",
			Tables: tables,
		}
	})
	emit(em, rep)
	writeCSVs(rep, csvDir)
	persist(rep, outDir)
}

// runExplain diffs two configurations' counter snapshots and ranks the
// events responsible for the cycle delta. Each side of " vs " is a
// comma-separated key=value override list applied to the base configuration
// assembled from the single-run flags ("base" or an empty side keeps the
// base unchanged).
func runExplain(spec string, base harness.RunConfig, quick bool, parallel int,
	em harness.Emitter, outDir string) {
	if base.Bench == "" {
		base.Bench = "pmd"
	}
	sides := strings.Split(spec, " vs ")
	if len(sides) != 2 {
		fmt.Fprintf(os.Stderr, "-explain wants %q, got %q\n", "A vs B", spec)
		os.Exit(2)
	}
	a, err := cliconfig.Override(base, sides[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	b, err := cliconfig.Override(base, sides[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	r := harness.NewRunner()
	r.Workers = parallel
	if quick {
		r.QuickDivisor = 10
	}
	rep := r.Explain(a, b)
	emit(em, rep)
	persist(rep, outDir)
}

// writeCSVs dumps each of the report's tables as <dir>/<id>_<n>.csv.
func writeCSVs(rep *harness.Report, dir string) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	for i, t := range rep.Tables {
		f, err := os.Create(fmt.Sprintf("%s/%s_%d.csv", dir, rep.ID, i))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			continue
		}
		t.CSV(f)
		f.Close()
	}
}

// runSingle runs one configuration and dumps its statistics. It returns the
// exit status: 1 when the run crashed instead of finishing.
func runSingle(rc harness.RunConfig, trials, parallel int) int {
	r := harness.NewRunner()
	r.Workers = parallel
	base := rc
	base.FailureAware = false
	base.FailureRate = 0
	base.ClusterPages = 0
	if trials > 1 {
		tr := r.RunTrials(rc, trials)
		fmt.Printf("%s over %d seeds: mean %.0f cycles ± %.0f (95%% CI), %d DNF\n",
			rc.Bench, tr.N, tr.MeanCycles, tr.CI95Cycles, tr.DNFs)
		if mean, ci, dnfs := r.NormalizedTrials(rc, base, trials); dnfs < trials {
			fmt.Printf("normalized vs unmodified %s: %.3f ± %.3f (%d DNF)\n", rc.Collector, mean, ci, dnfs)
		}
		return 0
	}
	res := r.Run(rc)
	if res.Panic != "" {
		fmt.Fprintf(os.Stderr, "%s: run crashed: %s\n", rc.Bench, res.Panic)
		return 1
	}
	if res.DNF {
		fmt.Printf("%s: DNF (out of memory at %.2fx min heap)\n", rc.Bench, rc.HeapMult)
		return 0
	}
	fmt.Printf("%s @ %.2fx heap (%d bytes), %s, line %d, failures %.0f%%, cluster %dp\n",
		rc.Bench, rc.HeapMult, res.Heap, rc.Collector, rc.LineSize, rc.FailureRate*100, rc.ClusterPages)
	fmt.Printf("  time:        %d cycles\n", res.Cycles)
	fmt.Printf("  collections: %d (%d full)\n", res.Collections, res.FullGCs)
	fmt.Printf("  avg GC:      %d cycles, max %d\n", res.AvgFullGC, res.MaxGC)
	fmt.Printf("  borrows:     %d perfect pages\n", res.Borrows)
	if res.ParallelTraces > 0 {
		fmt.Printf("  par trace:   %d traces, work %d / crit %d cycles (%.2fx), %d steals\n",
			res.ParallelTraces, res.TraceWorkCycles, res.TraceCritCycles,
			float64(res.TraceWorkCycles)/float64(res.TraceCritCycles), res.TraceSteals)
	}
	if res.WallNS > 0 {
		fmt.Printf("  wall:        %.1f ms (gc %.1f ms: trace %.1f, sweep %.1f)\n",
			float64(res.WallNS)/1e6, float64(res.WallGCNS)/1e6,
			float64(res.WallTraceNS)/1e6, float64(res.WallSweepNS)/1e6)
	}
	if lr := res.Latency; lr != nil {
		// A latency run that recorded no operations has no cycles to take a
		// share of.
		share := func(part stats.Cycles) float64 {
			if lr.TotalCycles == 0 {
				return 0
			}
			return 100 * float64(part) / float64(lr.TotalCycles)
		}
		fmt.Printf("  latency:     %d ops, p50 %d, p99 %d, p999 %d, max %d cycles\n",
			lr.Ops, lr.Overall.P50, lr.Overall.P99, lr.Overall.P999, lr.Overall.Max)
		fmt.Printf("    gc pause:    %d ops affected, p99 %d cycles (%.1f%% of cycles)\n",
			lr.GCPause.Ops, lr.GCPause.P99, share(lr.GCPauseCycles))
		fmt.Printf("    alloc stall: %d ops affected, p99 %d cycles (%.1f%% of cycles)\n",
			lr.AllocStall.Ops, lr.AllocStall.P99, share(lr.AllocStallCycles))
	}
	if n := r.Normalized(rc, base); n > 0 {
		fmt.Printf("  normalized:  %.3f vs unmodified %s\n", n, rc.Collector)
	}
	return 0
}

func runCalibration() {
	for _, p := range workload.SuiteWithBuggyLusearch() {
		lo, hi := 1, 256 // in 32 KB blocks
		for !completes(p, hi*32<<10) {
			hi *= 2
		}
		for lo < hi {
			mid := (lo + hi) / 2
			if completes(p, mid*32<<10) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		fmt.Printf("%-14s declaredMin=%8d empiricalMin=%8d headroom=%.0f%%\n",
			p.Name, p.MinHeap(), hi*32<<10,
			100*(float64(p.MinHeap())/float64(hi*32<<10)-1))
	}
}

func completes(p *workload.Profile, heapBytes int) bool {
	m, _ := machine.Boot(machine.Spec{ // no image: nothing to restore or recover
		Kernel: kernel.Config{PCMPages: 8 * heapBytes / failmap.PageSize},
		VM:     vm.Config{HeapBytes: heapBytes, Collector: vm.StickyImmix, FailureAware: true},
	})
	defer m.Close()
	return p.RunMutators(m.VM, 0, 1) == nil
}
