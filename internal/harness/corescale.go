package harness

import "fmt"

func coreScalePoints() []int { return []int{1, 2, 4, 8} }

// coreScaleConfig is one threaded measurement point, without its benchmark:
// n mutators on n trace workers with GOMAXPROCS pinned to n. Failure-aware
// S-IX at a roomy 3x heap (each context pins blocks of its own), no
// injected failures so the curve measures parallelism, not failure handling.
func coreScaleConfig(o Options, n int) RunConfig {
	rc := o.base().heap(3).aware(0)
	rc.Engine, rc.Mutators, rc.TraceWorkers, rc.Procs = "threaded", n, n, n
	rc.RecordWall = true
	return rc
}

// wallMS renders a run's host wall-clock time in milliseconds.
func wallMS(res Result) Cell {
	if res.DNF {
		return DNF()
	}
	return Number(float64(res.WallNS)/1e6, "%.1f")
}

// coreScale is the real-parallelism scaling study: the threaded engine
// run at matched GOMAXPROCS / mutator / trace-worker counts, measured in
// host wall-clock time. It is a study of this implementation, not a paper
// figure (the paper's runtime is single-threaded), so like mutscale it is
// reachable by id but excluded from "all" — and unlike every other
// experiment its headline numbers are machine-dependent by design.
//
// It runs on a runner of its own, one configuration at a time: wall-clock
// measurements must not share the host's cores with other in-flight
// configurations (a shared runner would also poison its memo cache with
// wall numbers taken under contention), and RunConfig.Procs pins the
// process-global GOMAXPROCS, which is only sound when runs do not overlap.
func coreScale(o Options, r *Runner) *Report {
	r.Workers = 1
	points := coreScalePoints()
	last := points[len(points)-1]
	t := Table{
		Title:   "Threaded engine wall-clock time vs cores (GOMAXPROCS = mutators = trace workers)",
		Columns: []string{"benchmark"},
	}
	for _, n := range points {
		t.Columns = append(t.Columns, fmt.Sprintf("n=%d (ms)", n))
	}
	t.Columns = append(t.Columns, "speedup @max", "oversub m=8 p=1 (ms)", "baton m=8 (ms)")
	for _, b := range o.benches() {
		row := []Cell{Text(b)}
		for _, n := range points {
			row = append(row, wallMS(r.Run(coreScaleConfig(o, n).bench(b))))
		}
		first := r.Run(coreScaleConfig(o, points[0]).bench(b))
		max := r.Run(coreScaleConfig(o, last).bench(b))
		if first.DNF || max.DNF || max.WallNS == 0 {
			row = append(row, Blank())
		} else {
			row = append(row, Number(float64(first.WallNS)/float64(max.WallNS), "%.2fx"))
		}
		// Oversubscription control: 8 mutators contending for one core. On
		// a single-core host this should track n=8 closely; on a multicore
		// host the gap to n=8 is the parallelism actually realized.
		over := coreScaleConfig(o, 8).bench(b)
		over.Procs = 1
		// Baton reference: the deterministic engine simulating the same 8
		// mutators on one goroutine — the cost of determinism in host time.
		baton := coreScaleConfig(o, 8).bench(b)
		baton.Engine, baton.Procs = "", 0
		t.Rows = append(t.Rows, append(row, wallMS(r.Run(over)), wallMS(r.Run(baton))))
	}
	host := HostMachine()
	t.Notes = append(t.Notes,
		fmt.Sprintf("host: %d core(s), GOMAXPROCS %d, %s %s/%s — wall numbers are machine-dependent and nondeterministic",
			host.Cores, host.GOMAXPROCS, host.GoVersion, host.OS, host.Arch),
		"speedup @max = wall(n=1) / wall(n=max); it cannot exceed the host's core count",
	)
	if host.Cores < 2 {
		t.Notes = append(t.Notes,
			"single-core host: no wall speedup is possible here; rerun on a multicore machine to measure scaling")
	}
	return &Report{Title: "Core scaling, threaded engine (implementation study)",
		Tables: []Table{t, coreScaleGC(o, r, last)}}
}

// coreScaleGC breaks the largest threaded point's collections into wall
// phases next to the simulated trace speedup, so host-time behavior can be
// checked against what the deterministic telemetry claims.
func coreScaleGC(o Options, r *Runner, n int) Table {
	t := Table{
		Title:   fmt.Sprintf("GC wall phases at n=%d (threaded)", n),
		Columns: []string{"benchmark", "GCs", "gc wall (ms)", "trace (ms)", "sweep (ms)", "sim trace speedup"},
	}
	ms := func(ns int64) Cell { return Number(float64(ns)/1e6, "%.1f") }
	for _, b := range o.benches() {
		res := r.Run(coreScaleConfig(o, n).bench(b))
		if res.DNF {
			t.Rows = append(t.Rows, padRow([]Cell{Text(b), DNF()}, len(t.Columns), Blank()))
			continue
		}
		t.Rows = append(t.Rows, []Cell{
			Text(b),
			Int(res.Collections),
			ms(res.WallGCNS),
			ms(res.WallTraceNS),
			ms(res.WallSweepNS),
			traceSpeedup(res),
		})
	}
	return t
}
