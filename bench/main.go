// Command bench is the repository's performance ledger: six named
// workloads, end-to-end metrics in host and simulated time, and a per-layer
// traced pass and ladder. README.md says what each number means;
// ../BENCHMARK.json is the manifest the benchmark driver reads.
//
//	bench -workload figs -seed 7 -seconds 12 -trace 0   one run; the last line of output is the result
//	bench [-trace 1] [-out dir]                         every workload, each in a child process; writes dir/result.json
//	bench -compare base.json new.json                   judge new against base by the declared bounds
//
// Every form exits non-zero when a correctness check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// setupRuns is how many fresh processes time set-up in one run.
const setupRuns = 5

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "all", "workload name, or all")
		seed      = fs.Int64("seed", pinSeed, "seed of the failure maps, device endurance, campaigns and KV popularity skew")
		seconds   = fs.Float64("seconds", runSeconds, "how long one run measures")
		trace     = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass and the ladder")
		out       = fs.String("out", "", "directory for result, report and trace files (default .bench_build/out when running all)")
		doCompare = fs.Bool("compare", false, "compare two result.json files: bench -compare base.json new.json")
		setupOnly = fs.Bool("setup-only", false, "run set-up and exit (what a run's set-up timing spawns)")
		noLadder  = fs.Bool("no-ladder", false, "leave the ladder out of a traced run (the whole ledger runs it in one child, not six)")
		manifest  = fs.Bool("manifest", false, "print BENCHMARK.json as the tables in this program declare it")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	if *manifest {
		fmt.Fprintf(stdout, "%s\n", manifestJSON())
		return 0
	}
	if *doCompare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two result.json files"))
		}
		var base, next ledger
		if err := readJSON(fs.Arg(0), &base); err != nil {
			return fail(err)
		}
		if err := readJSON(fs.Arg(1), &next); err != nil {
			return fail(err)
		}
		if base.Seed != next.Seed {
			// Simulated numbers repeat exactly at one seed and differ by
			// several percent between seeds: judging them across seeds
			// would call a different input a regression.
			return fail(fmt.Errorf("-compare: %s was taken at seed %d, %s at seed %d", fs.Arg(0), base.Seed, fs.Arg(1), next.Seed))
		}
		if printComparison(stdout, compare(&base, &next)) {
			return 1
		}
		return 0
	}

	if w := workloadByName(*name); w != nil {
		if *setupOnly {
			setUp(w, *seed, 1)
			return 0
		}
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				return fail(err)
			}
		}
		res, err := runWorkload(runOpts{
			workload: w, seed: *seed, seconds: *seconds, trace: *trace != 0,
			scale: 1, out: *out, setupRuns: setupRuns, skipLadder: *noLadder, log: stdout,
		})
		if err != nil {
			return fail(err)
		}
		if *out != "" {
			if err := writeJSON(childFile(*out, w.name, res.Trace), res); err != nil {
				return fail(err)
			}
		}
		line, err := json.Marshal(res.line())
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			fmt.Fprintln(stderr, "bench: a correctness check failed")
			return 1
		}
		return 0
	}
	if *name != "all" {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}

	if *out == "" {
		*out = filepath.Join(".bench_build", "out")
	}
	_, ok, err := runAll(*seed, *seconds, *trace != 0, *out, stdout)
	if err != nil {
		return fail(err)
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: a correctness check failed")
		return 1
	}
	return 0
}

// runSeconds is how long the benchmark driver lets one run measure.
const runSeconds = 12

// manifestJSON renders BENCHMARK.json from the workload and metric tables,
// so the manifest cannot drift from what the program prints.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, x := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{x.Name, x.Unit, x.Better, x.Bound})
	}
	for _, x := range perLayer() {
		m.PerLayer = append(m.PerLayer, layer{x.Name, x.Unit, x.Better})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return data
}
