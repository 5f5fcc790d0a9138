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
//	                                one configuration as a one-row report:
//	                                cycles, normalized, collections, borrows
//	wearbench -exp fig7 -seeds 5    each cell over seeds 1, 1001 ... 4001:
//	                                mean ± 95% CI and DNF count
//	wearbench -exp kvlat            KV request-latency quantiles across failure
//	                                regimes on both engines
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
		seeds     = flag.Int("seeds", 1, "failure-map seeds, 1000 apart from -seed: each cell is their mean, ± 95% CI and DNF count")

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
	if *seeds < 1 {
		fmt.Fprintf(os.Stderr, "-seeds %d: want at least 1\n", *seeds)
		os.Exit(2)
	}
	if *seeds > 1 && *explain != "" {
		fmt.Fprintf(os.Stderr, "-seeds %d: -explain diffs one seed\n", *seeds)
		os.Exit(2)
	}

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
	crashed := false
	output := func(rep *harness.Report) { crashed = emit(em, rep, *csvDir, *outDir) || crashed }

	var exps []harness.Experiment
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
		output(runExplain(*explain, rc, *quick, *parallel))
	case rc.Bench != "":
		exps = []harness.Experiment{harness.Single(rc)}
	case *exp == "all":
		exps = harness.All()
	case *exp != "":
		e := harness.ByID(*exp)
		if e == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		exps = []harness.Experiment{*e}
	default:
		flag.Usage()
		os.Exit(2)
	}

	// One runner for every experiment: the normalization baselines the
	// figures share memoize once instead of once per figure.
	opt := harness.Options{Quick: *quick, Seed: rc.Seed, Seeds: *seeds,
		Parallel: *parallel, Runner: harness.NewRunner()}
	total := time.Now()
	for _, e := range exps {
		start := time.Now()
		rep := e.Run(opt)
		fmt.Fprintf(os.Stderr, "# %-7s %6.2fs wall (%d workers)\n",
			e.ID, time.Since(start).Seconds(), *parallel)
		output(rep)
		if len(exps) > 1 {
			fmt.Println()
		}
	}
	if len(exps) > 1 {
		fmt.Fprintf(os.Stderr, "# total   %6.2fs wall\n", time.Since(total).Seconds())
	}
	if crashed {
		stop() // os.Exit runs no deferred call
		os.Exit(1)
	}
}

// emit stamps honest host metadata on the report (cores, GOMAXPROCS, Go
// version — the JSON emitter carries it; text output ignores it, keeping
// pinned reports host-independent), renders it to stdout and writes its
// CSVs and JSON document where asked. It prints the panic of every run that
// crashed instead of finishing to stderr, and reports whether one did.
func emit(em harness.Emitter, rep *harness.Report, csvDir, outDir string) (crashed bool) {
	hm := harness.HostMachine()
	rep.Machine = &hm
	if err := em.Emit(os.Stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	writeCSVs(rep, csvDir)
	persist(rep, outDir)
	for _, run := range rep.Runs {
		if run.Result.Panic != "" {
			fmt.Fprintf(os.Stderr, "%s seed %d: run crashed: %s\n", run.Config.Bench, run.Config.Seed, run.Result.Panic)
			crashed = true
		}
	}
	return crashed
}

// persist writes the report's schema-versioned JSON document (tables plus
// every run record) to <dir>/<id>.json.
func persist(rep *harness.Report, dir string) {
	if dir == "" {
		return
	}
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

// runExplain diffs two configurations' counter snapshots and ranks the
// events responsible for the cycle delta. Each side of " vs " is a
// comma-separated key=value override list applied to the base configuration
// assembled from the single-run flags ("base" or an empty side keeps the
// base unchanged).
func runExplain(spec string, base harness.RunConfig, quick bool, parallel int) *harness.Report {
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
	return r.Explain(a, b)
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
