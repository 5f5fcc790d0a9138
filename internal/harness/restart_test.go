package harness

import (
	"strings"
	"testing"
)

// TestRestartExperimentQuick runs the whole restart study at quick scale:
// every rate on both engines must recover, verify clean and resume within
// the committed SLOs — the same surface checks/restart.json gates in CI.
func TestRestartExperimentQuick(t *testing.T) {
	rep := ByID("restart").Run(Options{Quick: true, Seed: 42})
	if len(rep.Tables) != 2 {
		t.Fatalf("%d tables, want baton + threaded", len(rep.Tables))
	}
	for _, tab := range rep.Tables {
		if len(tab.Rows) != len(restartRates()) {
			t.Fatalf("%s: %d rows", tab.Title, len(tab.Rows))
		}
		slo := len(tab.Columns) - 1
		if tab.Columns[slo] != "SLO" {
			t.Fatalf("%s: last column is %q", tab.Title, tab.Columns[slo])
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Columns) {
				t.Fatalf("%s row %q: %d cells (recovery or resume failed: %s)",
					tab.Title, row[0].Text, len(row), row[len(row)-1].Text)
			}
			if got := row[slo].Text; got != "ok" {
				t.Errorf("%s row %q: SLO verdict %q", tab.Title, row[0].Text, got)
			}
		}
	}
}

// TestRestartExperimentDeterministic: the baton table is byte-identical
// across same-seed repeats — the doomed run, the cut instant, the image,
// recovery and the resumed server are all on the deterministic surface
// (the make restart-smoke gate asserts the same through the CLI).
func TestRestartExperimentDeterministic(t *testing.T) {
	a := restartTable("kv", "", 40, 42)
	b := restartTable("kv", "", 40, 42)
	var sa, sb strings.Builder
	a.render(&sa)
	b.render(&sb)
	if sa.String() != sb.String() {
		t.Fatalf("baton restart table diverged:\n%s\nvs\n%s", sa.String(), sb.String())
	}
}
