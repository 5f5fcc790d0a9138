package harness

import (
	"fmt"

	"wearmem/internal/stats"
)

func mutScaleMutators() []int { return []int{1, 2, 4, 8} }

// mutScaleConfig is one scaling point, without its benchmark: the paper's
// stressed failure configuration (25% two-page-clustered failures) at 3x min
// heap — every context pins its own current and overflow block, so
// multi-mutator runs need headroom a 1.5x heap does not have.
func mutScaleConfig(o Options, mutators int) RunConfig {
	rc := o.base().heap(3).aware(0.25).cluster(2)
	rc.Mutators = mutators
	return rc
}

// traceSpeedup is the trace-phase speedup of a run: total marking work over
// the critical path simulated time advanced by — the parallelism the
// work-stealing trace actually realized. Blank for a run that finished
// without a single parallel trace.
func traceSpeedup(res Result) Cell {
	if res.TraceCritCycles == 0 {
		return Blank()
	}
	return Number(float64(res.TraceWorkCycles)/float64(res.TraceCritCycles), "%.2fx")
}

// mutScale is the multi-mutator scaling study: each benchmark split across
// 1..8 mutator contexts under mutScaleConfig, with one parallel trace lane
// per mutator. It is not a figure of the paper — the paper's runtime is
// single-threaded — so it is reachable by id but excluded from "all".
func mutScale(o Options, r *Runner) *Report {
	t := Table{
		Title:   "Time vs mutator count at 3x heap, 25% 2CL failures, normalized per benchmark to one mutator",
		Columns: []string{"benchmark"},
	}
	for _, m := range mutScaleMutators() {
		t.Columns = append(t.Columns, fmt.Sprintf("m=%d", m))
	}
	t.Columns = append(t.Columns, "trace speedup @8")
	for _, b := range o.benches() {
		row := []Cell{Text(b)}
		for _, m := range mutScaleMutators() {
			row = append(row, fnum(r.Normalized(
				mutScaleConfig(o, m).bench(b), mutScaleConfig(o, 1).bench(b))))
		}
		if at8 := r.Run(mutScaleConfig(o, 8).bench(b)); at8.DNF {
			row = append(row, DNF())
		} else {
			row = append(row, traceSpeedup(at8))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"time normalized to the same benchmark with one mutator; below 1.0 means the parallel trace wins",
		"trace speedup = work cycles / critical-path cycles across all parallel traces of the 8-mutator run")
	return &Report{Title: "Multi-mutator scaling (implementation study)",
		Tables: []Table{t, mutScaleTrace(o, r)}}
}

// mutScaleTrace details the parallel-trace telemetry of the 8-mutator runs:
// total marking work, the critical path simulated time advanced by, and how
// many gray-stack segments the deterministic work-stealing drain moved.
func mutScaleTrace(o Options, r *Runner) Table {
	t := Table{
		Title:   "Parallel trace at 8 mutators (8 lanes)",
		Columns: []string{"benchmark", "traces", "work (Mcycles)", "crit (Mcycles)", "speedup", "steals"},
	}
	mcyc := func(c stats.Cycles) Cell { return Number(float64(c)/1e6, "%.3f") }
	var total Result
	for _, b := range o.benches() {
		res := r.Run(mutScaleConfig(o, 8).bench(b))
		switch {
		case res.DNF:
			t.Rows = append(t.Rows, padRow([]Cell{Text(b), DNF()}, len(t.Columns), Blank()))
		case res.TraceCritCycles == 0:
			t.Rows = append(t.Rows, padRow([]Cell{Text(b), Int(res.ParallelTraces)}, len(t.Columns), Blank()))
		default:
			total.TraceWorkCycles += res.TraceWorkCycles
			total.TraceCritCycles += res.TraceCritCycles
			t.Rows = append(t.Rows, []Cell{
				Text(b),
				Int(res.ParallelTraces),
				mcyc(res.TraceWorkCycles),
				mcyc(res.TraceCritCycles),
				traceSpeedup(res),
				Int(int(res.TraceSteals)),
			})
		}
	}
	if total.TraceCritCycles > 0 {
		t.Rows = append(t.Rows, []Cell{Text("total"), Blank(),
			mcyc(total.TraceWorkCycles),
			mcyc(total.TraceCritCycles),
			traceSpeedup(total), Blank()})
	}
	return t
}
