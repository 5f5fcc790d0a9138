package harness

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"

	"wearmem/internal/stats"
)

// SchemaVersion identifies the structure of RunRecord and of the JSON
// report document. Bump it whenever a field changes meaning or moves, so
// downstream tooling can reject records it does not understand.
const SchemaVersion = 1

// RunRecord is the schema-versioned structured record of one benchmark
// execution: the full configuration, the result summary, and (inside the
// result) the complete per-event counter snapshot. Records are the
// machine-readable, diffable ground truth behind every rendered table.
type RunRecord struct {
	Schema int       `json:"schema"`
	Key    string    `json:"key"`
	Config RunConfig `json:"config"`
	Result Result    `json:"result"`
}

// newRecord wraps a memoized result as a record. rc must already be
// quickened (it is taken from the runner's planning state or cache keys).
func newRecord(rc RunConfig, res Result) RunRecord {
	return RunRecord{Schema: SchemaVersion, Key: rc.key(), Config: rc, Result: res}
}

// canonicalKey derives the memo key from every exported RunConfig field in
// declaration order via reflection, so adding a field can never silently
// alias distinct configurations: a new field joins the key automatically,
// and a field of an unsupported kind panics at first use instead of being
// dropped.
func canonicalKey(rc RunConfig) string { return canonicalKeyOf(rc) }

// canonicalKeyOf implements canonicalKey over any struct (separated so the
// unsupported-kind panic is testable without widening RunConfig). Each
// field appends "Name=value|" to one buffer, the value as fmt's %v spells
// it: a Stringer's String, else strconv's form of its kind.
func canonicalKeyOf(rc any) string {
	v := reflect.ValueOf(rc)
	key := make([]byte, 0, 320)
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		key = append(append(key, f.Name...), '=')
		switch k := f.Type.Kind(); {
		case f.Name == "Inject":
			// The template's content is identified by InjectName (required
			// by its doc contract); a presence marker still participates so
			// an unnamed template cannot alias the no-template config.
			key = strconv.AppendBool(key, !fv.IsNil())
		case f.Type.Implements(stringerType):
			key = append(key, fv.Interface().(fmt.Stringer).String()...)
		case k == reflect.String:
			key = append(key, fv.String()...)
		case k == reflect.Bool:
			key = strconv.AppendBool(key, fv.Bool())
		case fv.CanInt():
			key = strconv.AppendInt(key, fv.Int(), 10)
		case fv.CanUint() && k != reflect.Uintptr:
			key = strconv.AppendUint(key, fv.Uint(), 10)
		case fv.CanFloat():
			key = strconv.AppendFloat(key, fv.Float(), 'g', -1, f.Type.Bits())
		default:
			panic(fmt.Sprintf("harness: RunConfig field %s has kind %v with no canonical encoding; teach canonicalKey about it",
				f.Name, k))
		}
		key = append(key, '|')
	}
	return string(key)
}

var stringerType = reflect.TypeFor[fmt.Stringer]()

// Record executes (or recalls) one configuration and returns its
// structured record.
func (r *Runner) Record(rc RunConfig) RunRecord {
	rc = r.quicken(rc)
	return newRecord(rc, r.Run(rc))
}

// records builds the sorted record set for a planned configuration list
// (every result is already memoized, so this only recalls).
func (r *Runner) records(cfgs []RunConfig) []RunRecord {
	out := make([]RunRecord, 0, len(cfgs))
	for _, rc := range cfgs {
		out = append(out, newRecord(rc, r.Run(rc)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Explain runs (or recalls) two configurations and reports the events
// responsible for their cycle delta: each counter's count under A and B,
// the count delta, and the cycle delta it contributes under the default
// cost table, ranked by absolute cycle contribution. It is the §6
// attribution question — is an overhead line skips, false failures,
// redirection misses, or perfect-page borrows? — answered from the counter
// snapshots instead of eyeballing rendered tables.
func (r *Runner) Explain(a, b RunConfig) *Report {
	ra, rb := r.Record(a), r.Record(b)
	costs := stats.DefaultCosts()

	type contrib struct {
		event    string
		ca, cb   uint64
		dCycles  int64
		absOrder int // original event order, for deterministic ties
	}
	var rows []contrib
	var totalDelta int64
	for i := range ra.Result.Counters {
		ca, cb := ra.Result.Counters[i], rb.Result.Counters[i]
		d := (int64(ca.Count) - int64(cb.Count)) * int64(costs[stats.Event(i)])
		totalDelta += d
		if ca.Count == 0 && cb.Count == 0 {
			continue
		}
		rows = append(rows, contrib{ca.Event, ca.Count, cb.Count, d, i})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		ai, aj := rows[i].dCycles, rows[j].dCycles
		if ai < 0 {
			ai = -ai
		}
		if aj < 0 {
			aj = -aj
		}
		if ai != aj {
			return ai > aj
		}
		return rows[i].absOrder < rows[j].absOrder
	})

	t := Table{
		Title:   "Per-event cycle attribution of A - B (default cost table)",
		Columns: []string{"event", "count A", "count B", "Δcount", "Δcycles", "share"},
	}
	for _, c := range rows {
		share := Blank()
		if totalDelta != 0 {
			share = Number(100*float64(c.dCycles)/float64(totalDelta), "%.1f%%")
		}
		t.Rows = append(t.Rows, []Cell{
			Text(c.event),
			Number(float64(c.ca), "%.0f"),
			Number(float64(c.cb), "%.0f"),
			Number(float64(int64(c.ca)-int64(c.cb)), "%+.0f"),
			Number(float64(c.dCycles), "%+.0f"),
			share,
		})
	}
	status := func(rec RunRecord) string {
		s := fmt.Sprintf("%d cycles", rec.Result.Cycles)
		if rec.Result.DNF {
			s += " (DNF)"
		}
		// Wall-clock telemetry is host-dependent and only present when the
		// config asked for it; report it as context, never as the diff.
		if rec.Result.WallNS > 0 {
			s += fmt.Sprintf("; wall %.1f ms (gc %.1f ms: trace %.1f, sweep %.1f)",
				float64(rec.Result.WallNS)/1e6,
				float64(rec.Result.WallGCNS)/1e6,
				float64(rec.Result.WallTraceNS)/1e6,
				float64(rec.Result.WallSweepNS)/1e6)
		}
		return s
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("A: %s", status(ra)),
		fmt.Sprintf("B: %s", status(rb)),
		fmt.Sprintf("total Δcycles %+d (events sum the whole clock, so shares sum to 100%%)", totalDelta),
	)
	rep := &Report{ID: "explain", Title: "Counter diff A vs B", Tables: []Table{t}}
	rep.Runs = []RunRecord{ra, rb}
	sort.Slice(rep.Runs, func(i, j int) bool { return rep.Runs[i].Key < rep.Runs[j].Key })
	return rep
}
