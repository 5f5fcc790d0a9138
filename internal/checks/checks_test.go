package checks

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wearmem/internal/harness"
)

// doc builds a two-table report shaped like the restart report.
func doc(p99 float64) *harness.Report {
	mk := func(title string) harness.Table {
		return harness.Table{
			Title:   title,
			Columns: []string{"failure rate", "recovery (Mcyc)", "verified", "kv p99", "SLO"},
			Rows: [][]harness.Cell{
				{harness.Number(0, "%.0f%%"), harness.Number(34.08, "%.2f"),
					harness.Text("ok"), harness.Number(559, "%.0f"), harness.Text("ok")},
				{harness.Number(50, "%.0f%%"), harness.Number(67.21, "%.2f"),
					harness.Text("ok"), harness.Number(p99, "%v"), harness.Text("ok")},
			},
		}
	}
	return &harness.Report{
		ID:      "restart",
		Machine: &harness.MachineInfo{Cores: 8},
		Tables:  []harness.Table{mk("Restart survival (baton engine)"), mk("Restart survival (threaded engine)")},
	}
}

const spec = `
// gate
{
  "report": "restart",
  "machine": {"min_cores": 2},
  "checks": [
    {"name": "recovery", "table": "baton engine", "column": "recovery (Mcyc)", "max": 200},
    // a comment between checks
    {"name": "verified", "column": "verified", "equals": "ok"},
    {"name": "p99", "column": "kv p99", "max": 400000}
  ]
}
`

func TestChecksSpecRoundTrip(t *testing.T) {
	sp, err := ParseSpec(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Report != "restart" || sp.Machine.MinCores != 2 || len(sp.Checks) != 3 {
		t.Fatalf("parsed %+v", sp)
	}
	c := sp.Checks[0]
	if c.Name != "recovery" || c.Table != "baton engine" || c.Column != "recovery (Mcyc)" ||
		c.Max == nil || *c.Max != 200 {
		t.Fatalf("check 0: %+v", c)
	}
	if sp.Checks[1].Equals != "ok" || sp.Checks[1].Table != "" {
		t.Fatalf("check 1: %+v", sp.Checks[1])
	}
}

func TestChecksEvaluatePass(t *testing.T) {
	sp, _ := ParseSpec(strings.NewReader(spec))
	out, err := Evaluate(sp, doc(703))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Ok() {
		t.Fatalf("clean document failed: %+v", out.Results)
	}
	if out.Results[0].Cells != 2 { // baton table only
		t.Fatalf("recovery check covered %d cells, want 2", out.Results[0].Cells)
	}
	if out.Results[1].Cells != 4 { // both tables
		t.Fatalf("verified check covered %d cells, want 4", out.Results[1].Cells)
	}
}

// A broken budget fails with an explain-style line naming the cell, the
// observed value and the budget.
func TestChecksEvaluateFailExplains(t *testing.T) {
	sp, _ := ParseSpec(strings.NewReader(spec))
	out, err := Evaluate(sp, doc(500000))
	if err != nil {
		t.Fatal(err)
	}
	if out.Ok() {
		t.Fatal("broken p99 budget passed")
	}
	var fail string
	for _, r := range out.Results {
		if !r.Ok() {
			fail = strings.Join(r.Failures, "\n")
		}
	}
	for _, want := range []string{`row "50%"`, "500000", "exceeds max 400000", "kv p99"} {
		if !strings.Contains(fail, want) {
			t.Errorf("failure lines missing %q:\n%s", want, fail)
		}
	}
}

// A gate whose selector no longer matches the report is a failure, not a
// silent pass.
func TestChecksEvaluateCatchesDrift(t *testing.T) {
	sp, _ := ParseSpec(strings.NewReader(`{"report": "restart", "checks": [
		{"name": "gone", "column": "no such column", "max": 1}]}`))
	out, err := Evaluate(sp, doc(700))
	if err != nil {
		t.Fatal(err)
	}
	if out.Ok() {
		t.Fatal("check selecting no cells passed")
	}
}

// A small machine skips a gated spec instead of failing it.
func TestChecksMachineClassSkip(t *testing.T) {
	sp, _ := ParseSpec(strings.NewReader(spec))
	d := doc(700)
	d.Machine.Cores = 1
	out, err := Evaluate(sp, d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Skipped == "" || !out.Ok() {
		t.Fatalf("1-core document not skipped: %+v", out)
	}
	// Wrong report ID is an error, not a skip.
	d = doc(700)
	d.ID = "kvlat"
	if _, err := Evaluate(sp, d); err == nil {
		t.Fatal("mismatched report id accepted")
	}
}

// Every committed gate parses and each of its checks selects cells of the
// committed report it names, so no gate can silently drift from its
// experiment. The machine class is lifted: some reports were recorded on
// one core, and this is about selectors, not budgets.
func TestGatesMatchCommittedReports(t *testing.T) {
	paths, err := filepath.Glob("../../checks/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no gates found: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := ParseSpec(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if data, err = os.ReadFile("../../results/" + sp.Report + ".json"); err != nil {
			t.Fatal(err)
		}
		rep, err := ReadReport(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", sp.Report, err)
		}
		sp.Machine.MinCores = 0
		out, err := Evaluate(sp, rep)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, r := range out.Results {
			if r.Cells == 0 {
				t.Errorf("%s: check %s selects no cells", path, r.Check.Name)
			}
			for _, f := range r.Failures {
				if strings.Contains(f, "no column") || strings.Contains(f, "selected no cells") {
					t.Errorf("%s: check %s: %s", path, r.Check.Name, f)
				}
			}
		}
	}
}

// oneCheck is a spec whose one check is named p99, reads kv p99 and ends
// with body, on line 3.
func oneCheck(body string) string {
	return "{\"report\": \"restart\", \"checks\": [\n  {\"name\": \"p99\", \"column\": \"kv p99\",\n   " + body + "}\n]}\n"
}

// hollow are specs ParseSpec refuses, each with what its error must say:
// the line, when the spec is not JSON, or the check by index and name.
var hollow = []struct{ why, spec, want string }{
	{"NaN max", oneCheck(`"max": NaN`), "line 3: invalid character 'N'"},
	{"NaN min", oneCheck(`"min": nan`), "line 3: invalid character 'a' in literal null"},
	{"infinite max", oneCheck(`"max": +Inf`), "line 3: invalid character '+'"},
	{"infinite min", oneCheck(`"min": -Inf`), "line 3: invalid character 'I' in numeric literal"},
	{"out-of-range max", oneCheck(`"max": 1e400`), `check 0 "p99": json: cannot unmarshal number 1e400 into Go struct field Check.max of type float64`},
	{"no budget", oneCheck(`"row": "x"`), `check 0 "p99": has no max, min or equals, so it passes every cell`},
	{"min above max", oneCheck(`"min": 2, "max": 1`), `check 0 "p99": has min 2 above max 1, so it fails every cell`},
	{"quoted number", oneCheck(`"max": "200"`), `check 0 "p99": json: cannot unmarshal string into Go struct field Check.max of type float64`},
	{"unknown key", oneCheck(`"maximum": 200`), `check 0 "p99": json: unknown field "maximum"`},
	{"trailing value", oneCheck(`"max": 200`) + "// the next spec\n{}\n", "line 6: a value follows the spec"},
	{"no name", `{"report": "restart", "checks": [{"column": "kv p99", "max": 1}]}`, `check 0 "": has no name`},
	{"no column", `{"report": "restart", "checks": [
		{"name": "ok", "column": "kv p99", "max": 1},
		{"name": "p99", "max": 1}]}`, `check 1 "p99": has no column`},
}

// A gate that cannot fail, cannot pass, cannot be named or is not exactly
// the JSON Spec decodes is refused. A NaN max used to pass a cell of 1e9,
// and a check with no budget passed every cell.
func TestParseSpecRefusesHollowGates(t *testing.T) {
	for _, c := range hollow {
		_, err := ParseSpec(strings.NewReader(c.spec))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.why, err, c.want)
		}
	}
}

// FuzzParseSpec: any input is a spec or an error, never a panic, and every
// spec it accepts has checks that are named, address a column, carry a
// budget, and bound it finitely with min not above max.
func FuzzParseSpec(f *testing.F) {
	f.Add(spec)
	for _, name := range []string{"restart", "pausecurve", "policyzoo"} {
		data, err := os.ReadFile("../../checks/" + name + ".json")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	for _, c := range hollow {
		f.Add(c.spec)
	}
	f.Fuzz(func(t *testing.T, in string) {
		sp, err := ParseSpec(strings.NewReader(in))
		if err != nil {
			return
		}
		if sp.Report == "" || len(sp.Checks) == 0 {
			t.Fatalf("accepted a spec with no report or no checks: %+v", sp)
		}
		finite := func(b *float64) bool { return b == nil || !math.IsNaN(*b) && !math.IsInf(*b, 0) }
		for _, c := range sp.Checks {
			switch {
			case c.Name == "" || c.Column == "":
				t.Fatalf("accepted an unnamed check or one with no column: %+v", c)
			case c.Max == nil && c.Min == nil && c.Equals == "":
				t.Fatalf("accepted check %q with no budget", c.Name)
			case !finite(c.Max) || !finite(c.Min):
				t.Fatalf("accepted check %q with a budget that is not finite", c.Name)
			case c.Max != nil && c.Min != nil && *c.Min > *c.Max:
				t.Fatalf("accepted check %q with min above max", c.Name)
			}
		}
	})
}
