package harness

import (
	"fmt"

	"wearmem/internal/stats"
)

// pauseCurve is the pause-vs-throughput study: the wear-aware KV scenario
// run under a sweep of mark pause budgets — the historical stop-the-world
// collector, then incremental (baton) or concurrent (threaded) marking at
// progressively tighter PauseBudget bounds — reporting worst pause,
// per-phase pause quantiles and the request-latency tail they buy, plus
// the throughput cost. It is a study of this implementation (the paper's
// collectors are all stop-the-world), so it is reachable by id but
// excluded from "all".
func pauseCurve(o Options, r *Runner) *Report {
	return &Report{
		Title:  "Bounded GC pauses: budget vs throughput and KV tail latency (implementation study)",
		Tables: bothEngines(func(engine string) Table { return pauseCurveTable(r, o, engine) }),
	}
}

// pauseCurveBudgets sweeps the mark pause budget in simulated cycles:
// 0 is the stop-the-world baseline, then three decades of tightening.
func pauseCurveBudgets() []int { return []int{0, 1_000_000, 100_000, 10_000} }

// pauseCurveTable sweeps the budgets for one engine ("" = baton,
// "threaded"). On the baton engine every row is byte-identical across
// same-seed repeats, incremental rows included.
func pauseCurveTable(r *Runner, o Options, engine string) Table {
	mode := "incremental"
	if engine == "threaded" {
		mode = "concurrent"
	}
	t := Table{
		Title: fmt.Sprintf("Pause budget sweep (%s marking), %s engine, %d mutators, 2x heap (cycles)",
			mode, engineName(engine), kvMutators),
		Columns: []string{"budget", "time (Mcycles)", "GCs", "mark cycles", "increments",
			"max pause", "mark p99", "final p99", "kv p999", "kv max"},
	}
	for _, b := range pauseCurveBudgets() {
		rc := o.kvConfig(engine, 0, 0)
		rc.PauseBudget = b
		t.Rows = append(t.Rows, pauseCurveRow(b, r.Run(rc)))
	}
	t.Notes = append(t.Notes,
		"budget bounds one marking pause's work in simulated cycles (0 = stop-the-world); final-mark/sweep stays STW",
		"max pause is the worst mutator-visible pause; mark/final p99 split bounded increments from STW phases",
		"kv quantiles are per-request latency; mark cycles counts incremental/concurrent marking cycles begun")
	return t
}

// pauseCurveRow renders one budget's digest.
func pauseCurveRow(budget int, res Result) []Cell {
	label := Text("STW")
	if budget > 0 {
		label = Textf("%d", budget)
	}
	if res.DNF {
		return padRow([]Cell{label}, 10, DNF())
	}
	p99 := func(s *stats.QuantileSummary) Cell {
		if s == nil {
			return Blank()
		}
		return cycleCell(s.P99)
	}
	lr := latencyOf(res.Latency)
	return []Cell{
		label,
		Number(float64(res.Cycles)/1e6, "%.1f"),
		Int(res.Collections),
		Int(res.IncrementalCycles + res.ConcurrentCycles),
		Int(res.MarkIncrements),
		cycleCell(res.MaxGC),
		p99(res.PauseMark),
		p99(res.PauseFinal),
		cycleCell(lr.Overall.P999), cycleCell(lr.Overall.Max),
	}
}
