package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"wearmem/internal/stats"
	"wearmem/internal/vm"
)

var update = flag.Bool("update", false, "rewrite the emitter golden files")

// sampleReport builds a fixed report exercising every cell kind, multiple
// tables, notes, and an attached run record, without running the simulator
// (so the goldens are stable against cost-model changes).
func sampleReport() *Report {
	cfg := RunConfig{Bench: "pmd", HeapMult: 2, Collector: vm.StickyImmix,
		FailureAware: true, FailureRate: 0.25, ClusterPages: 2, Iterations: 100, Seed: 1}
	rec := RunRecord{
		Schema: SchemaVersion,
		Key:    cfg.key(),
		Config: cfg,
		Result: Result{
			Cycles: 123456, Collections: 3, FullGCs: 1, Borrows: 2,
			AvgFullGC: 400, MaxGC: 700, Heap: 1 << 20,
			TraceCycles: 800, SweepCycles: 400,
			LinesReclaimed: 64, BytesReclaimed: 4096, BlocksDefragged: 1,
			Counters: []stats.Counter{
				{Event: "heap-read", Count: 1000},
				{Event: "heap-write", Count: 250},
			},
		},
	}
	return &Report{
		ID:    "sample",
		Title: "Emitter golden sample",
		Tables: []Table{
			{
				Title:   "first table",
				Columns: []string{"benchmark", "norm", "collections", "label"},
				Rows: [][]Cell{
					{Text("pmd"), Number(1.042, "%.3f"), Int(3), Textf("L%d", 256)},
					{Text("xalan"), DNF(), Blank(), Text("2CL")},
					{Text("hsqldb"), Number(25, "%.0f%%"), Int(0), Blank()},
				},
				Notes: []string{"a note", "another \"quoted\" note"},
			},
			{
				Columns: []string{"k", "v"},
				Rows:    [][]Cell{{Text("untitled table"), Number(-0.5, "%.1f")}},
			},
		},
		Runs: []RunRecord{rec},
	}
}

func TestEmitterGoldens(t *testing.T) {
	rep := sampleReport()
	for _, format := range Formats() {
		format := format
		t.Run(format, func(t *testing.T) {
			em, err := EmitterFor(format)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := em.Emit(&buf, rep); err != nil {
				t.Fatalf("emit: %v", err)
			}
			path := filepath.Join("testdata", "sample."+format+".golden")
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run go test ./internal/harness -run TestEmitterGoldens -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s output differs from golden\n--- got ---\n%s\n--- want ---\n%s",
					format, buf.Bytes(), want)
			}
		})
	}
}

// The text emitter is the compatibility contract: Render must produce its
// exact bytes.
func TestRenderMatchesTextEmitter(t *testing.T) {
	rep := sampleReport()
	var viaRender, viaEmitter bytes.Buffer
	rep.Render(&viaRender)
	if err := (textEmitter{}).Emit(&viaEmitter, rep); err != nil {
		t.Fatal(err)
	}
	if viaRender.String() != viaEmitter.String() {
		t.Fatal("Render and the text emitter disagree")
	}
}

func TestEmitterForUnknownFormat(t *testing.T) {
	if _, err := EmitterFor("xml"); err == nil {
		t.Fatal("unknown format must error")
	}
	if em, err := EmitterFor(""); err != nil || em == nil {
		t.Fatal("empty format must default to text")
	}
}

// JSON must round-trip DNF as a missing value and numbers with their
// underlying floats — downstream tooling reads values, not display text.
func TestJSONCellValues(t *testing.T) {
	var buf bytes.Buffer
	if err := (jsonEmitter{}).Emit(&buf, sampleReport()); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{
		`"schema": 1`,
		`"kind": "dnf"`,
		`"value": 1.042`,
		`"counters"`,
		`"event": "heap-read"`,
	} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("JSON output missing %q", want)
		}
	}
}

// The JSON document decodes back into the Report it was written from, so
// one type is the schema for writers and readers alike: re-emitting the
// decoded report gives the same bytes, and empty lists stay arrays.
func TestJSONRoundTrip(t *testing.T) {
	empty := &Report{ID: "empty", Tables: []Table{{Title: "no rows"}}}
	merged := &Report{ID: "merged", Tables: []Table{{Columns: []string{"norm"},
		Rows: [][]Cell{{mergeCell([]Cell{Number(1.5, "%.3f"), DNF(), Number(1.25, "%.3f")})}}}}}
	for _, rep := range []*Report{sampleReport(), empty, merged} {
		var first, second bytes.Buffer
		if err := (jsonEmitter{}).Emit(&first, rep); err != nil {
			t.Fatal(err)
		}
		var back Report
		if err := json.Unmarshal(first.Bytes(), &back); err != nil {
			t.Fatalf("%s: %v", rep.ID, err)
		}
		if err := (jsonEmitter{}).Emit(&second, &back); err != nil {
			t.Fatal(err)
		}
		if first.String() != second.String() {
			t.Errorf("%s: decoded report emits differently\n--- first ---\n%s\n--- second ---\n%s", rep.ID, &first, &second)
		}
	}
	var buf bytes.Buffer
	(jsonEmitter{}).Emit(&buf, empty)
	for _, want := range []string{`"rows": []`, `"runs": []`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("empty report JSON missing %q:\n%s", want, &buf)
		}
	}
	buf.Reset()
	(jsonEmitter{}).Emit(&buf, merged)
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if c := back.Tables[0].Rows[0][0]; !slices.Equal(c.Samples, []float64{1.5, 1.25}) || c.DNFs != 1 {
		t.Errorf("merged cell decoded as %+v; want samples [1.5 1.25] and 1 DNF", c)
	}
	for _, bad := range []string{`{"kind": "number", "text": "1"}`, `{"kind": "label", "text": "a", "value": 1}`, `{"kind": "bogus"}`} {
		var c Cell
		if err := json.Unmarshal([]byte(bad), &c); err == nil {
			t.Errorf("cell %s decoded as %+v", bad, c)
		}
	}
}
