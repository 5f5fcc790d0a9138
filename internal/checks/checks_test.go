package checks

import (
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

func f(v float64) *float64 { return &v }

// doc builds a two-table document shaped like the restart report.
func doc(p99 float64) *Document {
	mk := func(title string) Table {
		return Table{
			Title:   title,
			Columns: []string{"failure rate", "recovery (Mcyc)", "verified", "kv p99", "SLO"},
			Rows: [][]Cell{
				{{Kind: "number", Text: "0%", Value: f(0)}, {Kind: "number", Text: "34.08", Value: f(34.08)},
					{Kind: "label", Text: "ok"}, {Kind: "number", Text: "559", Value: f(559)}, {Kind: "label", Text: "ok"}},
				{{Kind: "number", Text: "50%", Value: f(50)}, {Kind: "number", Text: "67.21", Value: f(67.21)},
					{Kind: "label", Text: "ok"}, {Kind: "number", Text: strconv.FormatFloat(p99, 'f', -1, 64), Value: f(p99)}, {Kind: "label", Text: "ok"}},
			},
		}
	}
	return &Document{
		Schema:  1,
		ID:      "restart",
		Machine: &Machine{Cores: 8},
		Tables:  []Table{mk("Restart survival (baton engine)"), mk("Restart survival (threaded engine)")},
	}
}

const spec = `
# gate
report: restart
machine:
  min_cores: 2
checks:
  - name: recovery
    table: baton engine
    column: "recovery (Mcyc)"
    max: 200
  - name: verified
    column: verified
    equals: ok
  - name: p99
    column: kv p99
    max: 400000
`

func TestChecksSpecRoundTrip(t *testing.T) {
	sp, err := ParseSpec(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Report != "restart" || sp.MinCores != 2 || len(sp.Checks) != 3 {
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
	sp, _ := ParseSpec(strings.NewReader(`
report: restart
checks:
  - name: gone
    column: no such column
    max: 1
`))
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

// The committed restart gate parses and its selectors match the real
// restart report's shape (titles and columns), so the CI gate cannot
// silently drift from the experiment.
func TestChecksRestartGateMatchesReport(t *testing.T) {
	fh, err := os.Open("../../checks/restart.yaml")
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	sp, err := ParseSpec(fh)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Report != "restart" {
		t.Fatalf("gate is for %q", sp.Report)
	}
	cols := map[string]bool{}
	for _, c := range []string{"failure rate", "recovery (Mcyc)", "rediscovered", "scrubbed",
		"usable frames", "verified", "resume (Mcyc)", "GCs", "kv p50", "kv p99", "kv max", "SLO"} {
		cols[c] = true
	}
	titles := []string{
		"Restart survival (baton engine, 4 mutators, power cut mid-load, 4x heap)",
		"Restart survival (threaded engine, 4 mutators, power cut mid-load, 4x heap)",
	}
	for _, c := range sp.Checks {
		if !cols[c.Column] {
			t.Errorf("check %s reads column %q the restart report does not emit", c.Name, c.Column)
		}
		if c.Table == "" {
			continue
		}
		found := false
		for _, title := range titles {
			found = found || strings.Contains(title, c.Table)
		}
		if !found {
			t.Errorf("check %s selects table ~%q, matching no restart table title", c.Name, c.Table)
		}
	}
}

// A gate that cannot fail, cannot pass or cannot be named is refused, with
// the line its check starts on. A NaN max used to pass a cell of 1e9, and a
// check with no budget passed every cell.
func TestParseSpecRefusesHollowGates(t *testing.T) {
	for _, c := range []struct{ why, check, want string }{
		{"NaN max", "max: NaN", `line 5: max "NaN" is not a finite number`},
		{"NaN min", "min: nan", `line 5: min "nan" is not a finite number`},
		{"infinite max", "max: +Inf", `line 5: max "+Inf" is not a finite number`},
		{"infinite min", "min: -Inf", `line 5: min "-Inf" is not a finite number`},
		{"out-of-range max", "max: 1e400", `line 5: max "1e400" is not a finite number`},
		{"no budget", "row: x", `line 3: check "p99" has no max, min or equals, so it passes every cell`},
		{"min above max", "min: 2\n    max: 1", `line 3: check "p99" has min 2 above max 1, so it fails every cell`},
	} {
		_, err := ParseSpec(strings.NewReader("report: restart\nchecks:\n  - name: p99\n    column: kv p99\n    " + c.check + "\n"))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.why, err, c.want)
		}
	}
	for _, c := range []struct{ why, spec, want string }{
		{"no name", "  - column: kv p99\n    max: 1\n", "line 3: check has no name"},
		{"no column", "  - name: ok\n    column: kv p99\n    max: 1\n  - name: p99\n    max: 1\n", `line 6: check "p99" has no column`},
	} {
		_, err := ParseSpec(strings.NewReader("report: restart\nchecks:\n" + c.spec))
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
		if data, err := os.ReadFile("../../checks/" + name + ".yaml"); err == nil {
			f.Add(string(data))
		}
	}
	f.Add("report: x\nchecks:\n  - name: a\n    column: b\n    max: NaN\n")
	f.Add("report: x\nmachine:\n  min_cores: 2\nchecks:\n  - name: a\n    column: b\n    min: 1\n    max: 2\n")
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
