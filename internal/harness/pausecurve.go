package harness

import (
	"fmt"

	"wearmem/internal/kv"
	"wearmem/internal/stats"
)

// PauseCurve is the pause-vs-throughput study: the wear-aware KV scenario
// run under a sweep of mark pause budgets — the historical stop-the-world
// collector, then incremental (baton) or concurrent (threaded) marking at
// progressively tighter PauseBudget bounds — reporting worst pause,
// per-phase pause quantiles and the request-latency tail they buy, plus
// the throughput cost. It is a study of this implementation (the paper's
// collectors are all stop-the-world), so it is reachable by id but
// excluded from "all".
func PauseCurve(o Options) *Report {
	r := o.runner()
	return r.Collect(func() *Report { return pauseCurveBody(o, r) })
}

// pauseCurveBudgets sweeps the mark pause budget in simulated cycles:
// 0 is the stop-the-world baseline, then three decades of tightening.
func pauseCurveBudgets() []int { return []int{0, 1_000_000, 100_000, 10_000} }

func pauseCurveBody(o Options, r *Runner) *Report {
	bench := kv.MustRegister(kv.Config{})
	iters := o.kvLatIterations()
	var tables []Table
	for _, engine := range []string{"", "threaded"} {
		tables = append(tables, pauseCurveTable(r, bench, engine, 4, iters, o.Seed))
	}
	return &Report{
		ID:     "pausecurve",
		Title:  "Bounded GC pauses: budget vs throughput and KV tail latency (implementation study)",
		Tables: tables,
	}
}

// pauseCurveTable sweeps the budgets for one engine ("" = baton,
// "threaded"). On the baton engine every row is byte-identical across
// same-seed repeats, incremental rows included.
func pauseCurveTable(r *Runner, bench, engine string, mutators, iters int, seed int64) Table {
	name, mode := "baton", "incremental"
	if engine == "threaded" {
		name, mode = "threaded", "concurrent"
	}
	t := Table{
		Title: fmt.Sprintf("Pause budget sweep (%s marking), %s engine, %d mutators, 2x heap (cycles)",
			mode, name, mutators),
		Columns: []string{"budget", "time (Mcycles)", "GCs", "mark cycles", "increments",
			"max pause", "mark p99", "final p99", "kv p999", "kv max"},
	}
	for _, b := range pauseCurveBudgets() {
		rc := kvLatConfig(bench, engine, mutators, iters, seed)
		rc.PauseBudget = b
		if engine == "threaded" && b > 0 {
			rc.Concurrent = 2
		}
		res := r.Run(rc)
		t.Rows = append(t.Rows, pauseCurveRow(b, res))
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
		row := []Cell{label}
		for i := 1; i < 10; i++ {
			row = append(row, DNF())
		}
		return row
	}
	cyc := func(c stats.Cycles) Cell { return Number(float64(c), "%.0f") }
	p99 := func(s *stats.QuantileSummary) Cell {
		if s == nil {
			return Blank()
		}
		return cyc(s.P99)
	}
	lr := res.Latency
	if lr == nil {
		lr = &stats.LatencyReport{}
	}
	return []Cell{
		label,
		Number(float64(res.Cycles)/1e6, "%.1f"),
		Int(res.Collections),
		Int(res.IncrementalCycles + res.ConcurrentCycles),
		Int(res.MarkIncrements),
		cyc(res.MaxGC),
		p99(res.PauseMark),
		p99(res.PauseFinal),
		cyc(lr.Overall.P999), cyc(lr.Overall.Max),
	}
}
