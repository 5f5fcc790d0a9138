package harness

import (
	"fmt"

	"wearmem/internal/kv"
	"wearmem/internal/stats"
)

// kvLat is the wear-aware KV server tail-latency study: the kv scenario
// under progressively harsher memory-failure regimes — healthy device,
// static failures, live dynamic failures, and a wearing write-through
// device with failure-buffer backpressure — reporting request-latency
// quantiles with GC-pause and allocation-stall attribution. It is a study
// of this implementation (the paper measures throughput, not service
// tails), so it is reachable by id but excluded from "all".
func kvLat(o Options, r *Runner) *Report {
	return &Report{
		Title:  "Wear-aware KV server tail latency (implementation study)",
		Tables: bothEngines(func(engine string) Table { return kvLatTable(r, o, engine) }),
	}
}

// kvMutators is the mutator count of every KV-scenario study.
const kvMutators = 4

// kvLatIterations bounds the scenario length so the quick suite stays
// quick; the runner's QuickDivisor does not apply to explicit iteration
// counts.
func (o Options) kvLatIterations() int {
	if o.Quick {
		return 150
	}
	return 400
}

// kvConfig is the KV studies' healthy-device configuration on one engine
// ("" = baton, "threaded"), with per-operation latency capture.
func (o Options) kvConfig(engine string) RunConfig {
	rc := o.base().bench(kv.MustRegister(kv.Config{}))
	rc.Engine, rc.Mutators, rc.Iterations, rc.Latency = engine, kvMutators, o.kvLatIterations(), true
	return rc
}

// bothEngines renders a study's table once per execution engine, the
// deterministic baton first.
func bothEngines(table func(engine string) Table) []Table {
	return []Table{table(""), table("threaded")}
}

// engineName is the display name of a RunConfig.Engine value.
func engineName(engine string) string {
	if engine == "" {
		return "baton"
	}
	return engine
}

// latencyOf is a run's latency report, all zeros when it recorded none.
func latencyOf(lr *stats.LatencyReport) stats.LatencyReport {
	if lr == nil {
		return stats.LatencyReport{}
	}
	return *lr
}

// cycleCell renders a whole number of simulated cycles.
func cycleCell(c stats.Cycles) Cell { return Number(float64(c), "%.0f") }

// kvRegime is one memory-failure regime the KV latency study runs under.
type kvRegime struct {
	label string
	apply func(RunConfig) RunConfig
}

// kvLatRegimes enumerates the failure regimes, mildest first.
func kvLatRegimes() []kvRegime {
	return []kvRegime{
		{"healthy", func(rc RunConfig) RunConfig { return rc }},
		{"static 10%", func(rc RunConfig) RunConfig { return rc.aware(0.10).cluster(2) }},
		{"dynamic", func(rc RunConfig) RunConfig {
			rc.DynFailEvery = 2
			return rc.aware(0)
		}},
		{"write-through", func(rc RunConfig) RunConfig {
			rc.WriteThrough = true
			return rc.aware(0)
		}},
	}
}

// kvLatTable sweeps the failure regimes of the kv scenario for one engine
// ("" = baton, "threaded") and renders the request-latency quantile table.
// On the baton engine the table is byte-identical across same-seed repeats.
func kvLatTable(r *Runner, o Options, engine string) Table {
	healthy := o.kvConfig(engine)
	t := Table{
		Title: fmt.Sprintf("KV request latency, %s engine, %d mutators, 2x heap (cycles)",
			engineName(engine), healthy.Mutators),
		Columns: append([]string{"regime"}, latencyColumns...),
	}
	for _, reg := range kvLatRegimes() {
		t.Rows = append(t.Rows, kvLatRow(reg.label, r.Run(reg.apply(healthy))))
	}
	t.Notes = append(t.Notes,
		"gc/stall quantiles are over affected operations only; shares are of total operation cycles",
		"write-through backs the pool with a wearing device (endurance 2048): stalls are §3.1.1 failure-buffer backpressure")
	return t
}

// latencyColumns head the cells kvLatRow renders after its label.
var latencyColumns = []string{"ops", "p50", "p99", "p999", "max",
	"gc ops", "gc p99", "stall ops", "stall p99", "gc share", "stall share"}

// kvLatRow renders one regime's latency digest.
func kvLatRow(label string, res Result) []Cell {
	if res.DNF {
		return padRow([]Cell{Text(label)}, 1+len(latencyColumns), DNF())
	}
	lr := latencyOf(res.Latency)
	share := func(part stats.Cycles) Cell {
		if lr.TotalCycles == 0 {
			return Blank()
		}
		return Number(100*float64(part)/float64(lr.TotalCycles), "%.1f%%")
	}
	return []Cell{
		Text(label),
		Int(int(lr.Ops)),
		cycleCell(lr.Overall.P50), cycleCell(lr.Overall.P99), cycleCell(lr.Overall.P999), cycleCell(lr.Overall.Max),
		Int(int(lr.GCPause.Ops)), cycleCell(lr.GCPause.P99),
		Int(int(lr.AllocStall.Ops)), cycleCell(lr.AllocStall.P99),
		share(lr.GCPauseCycles), share(lr.AllocStallCycles),
	}
}
