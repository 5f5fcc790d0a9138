package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"wearmem/internal/stats"
)

// Emitter renders a report to a writer. Emitters are pluggable backends
// over the typed report model: the text emitter reproduces the historical
// aligned-table output byte for byte, while the machine-readable emitters
// work from the typed cells and run records instead of display text.
type Emitter interface {
	Emit(w io.Writer, rep *Report) error
}

// Formats lists the selectable emitter names.
func Formats() []string { return []string{"text", "csv", "json", "prom"} }

// EmitterFor returns the emitter for a format name from Formats.
func EmitterFor(format string) (Emitter, error) {
	switch format {
	case "", "text":
		return textEmitter{}, nil
	case "csv":
		return csvEmitter{}, nil
	case "json":
		return jsonEmitter{}, nil
	case "prom":
		return promEmitter{}, nil
	}
	return nil, fmt.Errorf("harness: unknown format %q (have %s)", format, strings.Join(Formats(), ", "))
}

// textEmitter renders aligned text, byte-identical to the historical
// Report.Render output.
type textEmitter struct{}

func (textEmitter) Emit(w io.Writer, rep *Report) error {
	fmt.Fprintf(w, "==== %s: %s ====\n", rep.ID, rep.Title)
	for i := range rep.Tables {
		rep.Tables[i].render(w)
	}
	return nil
}

// csvEmitter renders every table as comma-separated values, preceded by a
// comment line locating it within the report.
type csvEmitter struct{}

func (csvEmitter) Emit(w io.Writer, rep *Report) error {
	for i := range rep.Tables {
		t := &rep.Tables[i]
		fmt.Fprintf(w, "# %s table %d: %s\n", rep.ID, i, t.Title)
		t.CSV(w)
		if i != len(rep.Tables)-1 {
			fmt.Fprintln(w)
		}
	}
	return nil
}

// jsonEmitter renders the schema-versioned document. Output is fully
// deterministic: every collection is an ordered slice and the run records
// are sorted by canonical key, so the bytes are identical at any worker
// count.
type jsonEmitter struct{}

func (jsonEmitter) Emit(w io.Writer, rep *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// promEmitter renders number cells as Prometheus exposition-format gauges,
// one sample per cell, labelled by experiment, table, row and column. DNF
// cells are omitted (an absent sample, like the paper's truncated curves).
type promEmitter struct{}

func (promEmitter) Emit(w io.Writer, rep *Report) error {
	fmt.Fprintln(w, "# TYPE wearmem_cell gauge")
	fmt.Fprintf(w, "# HELP wearmem_cell Typed table cells of experiment %s: %s\n", rep.ID, rep.Title)
	for ti := range rep.Tables {
		t := &rep.Tables[ti]
		for _, row := range t.Rows {
			if len(row) == 0 {
				continue
			}
			for ci, c := range row {
				if c.Kind != CellNumber || ci >= len(t.Columns) {
					continue
				}
				fmt.Fprintf(w, "wearmem_cell{experiment=%q,table=\"%d\",row=%q,column=%q} %v\n",
					rep.ID, ti, promLabel(row[0].Text), promLabel(t.Columns[ci]), c.Num)
			}
		}
	}
	for _, rec := range rep.Runs {
		fmt.Fprintf(w, "wearmem_run_cycles{key=%q} %d\n", promLabel(rec.Key), rec.Result.Cycles)
		if lr := rec.Result.Latency; lr != nil {
			promLatency(w, rec.Key, "overall", lr.Overall)
			promLatency(w, rec.Key, "gc_pause", lr.GCPause)
			promLatency(w, rec.Key, "alloc_stall", lr.AllocStall)
		}
	}
	return nil
}

// promLatency renders one latency class of a run's quantile report as
// gauges labelled by run key, class and statistic.
func promLatency(w io.Writer, key, class string, q stats.QuantileSummary) {
	for _, s := range []struct {
		stat string
		v    float64
	}{
		{"ops", float64(q.Ops)},
		{"mean", float64(q.Mean)},
		{"p50", float64(q.P50)},
		{"p90", float64(q.P90)},
		{"p99", float64(q.P99)},
		{"p999", float64(q.P999)},
		{"max", float64(q.Max)},
	} {
		fmt.Fprintf(w, "wearmem_run_latency_cycles{key=%q,class=%q,stat=%q} %v\n",
			promLabel(key), class, s.stat, s.v)
	}
}

// promLabel strips characters that would break exposition-format label
// values.
func promLabel(s string) string {
	return strings.NewReplacer("\"", "'", "\\", "/", "\n", " ").Replace(s)
}
