package harness

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"wearmem/internal/vm"
)

// runSeeds runs an experiment at quick size over n seeds from seed, on a
// fresh runner.
func runSeeds(id string, seed int64, n int) *Report {
	r := NewRunner()
	r.QuickDivisor = 40
	return ByID(id).Run(Options{Quick: true, Seed: seed, Seeds: n, Parallel: 2, Runner: r})
}

// A report over three seeds is the three one-seed reports at seed,
// seed+1000 and seed+2000 merged cell by cell: a number cell's samples are
// that cell of each seed that finished, a cell without samples renders as
// each of them does, and the run records are their union. fig4 moves with
// the seed; tab1, which injects no failures, does not.
func TestSeedsMergeCellByCell(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments over four seeds")
	}
	for _, id := range []string{"fig4", "tab1"} {
		merged := runSeeds(id, 7, 3)
		var singles []*Report
		runs := 0
		for i := range 3 {
			singles = append(singles, runSeeds(id, 7+int64(i)*seedStride, 1))
			runs += len(singles[i].Runs)
		}
		sampled := 0
		for ti, tab := range merged.Tables {
			for ri, row := range tab.Rows {
				for ci, c := range row {
					var want []float64
					for si, s := range singles {
						sc := s.Tables[ti].Rows[ri][ci]
						if c.Samples == nil && sc.Text != c.Text {
							t.Errorf("%s table %d row %d col %d: merged %q, seed %d rendered %q", id, ti, ri, ci, c.Text, si, sc.Text)
						}
						if sc.Kind == CellNumber {
							want = append(want, sc.Num)
						}
					}
					if c.Samples != nil {
						sampled++
						if !slices.Equal(c.Samples, want) {
							t.Errorf("%s table %d row %d col %d: samples %v, one-seed runs %v", id, ti, ri, ci, c.Samples, want)
						}
					}
				}
			}
		}
		if moves := id == "fig4"; (sampled > 0) != moves {
			t.Errorf("%s: %d cells carry samples; want some only where the seed moves the numbers", id, sampled)
		}
		if len(merged.Runs) != runs || !slices.IsSortedFunc(merged.Runs, func(a, b RunRecord) int { return strings.Compare(a.Key, b.Key) }) {
			t.Errorf("%s: %d run records, want the %d of the one-seed runs in key order", id, len(merged.Runs), runs)
		}
	}
}

// Single's cycles over five trials (seeds) are a mean with a narrow but
// non-zero spread: the paper reports 1-2% intervals.
func TestRunTrialsAggregates(t *testing.T) {
	r := NewRunner()
	r.QuickDivisor = 20
	rc := RunConfig{Bench: "sunflow", HeapMult: 2, Collector: vm.StickyImmix,
		FailureAware: true, FailureRate: 0.25, ClusterPages: 2}
	cycles := Single(rc).Run(Options{Seed: 1, Seeds: 5, Runner: r}).Tables[0].Rows[0][1]
	if len(cycles.Samples) != 5 || cycles.DNFs != 0 || cycles.Num <= 0 {
		t.Fatalf("cycles %+v, want a mean over 5 finished seeds", cycles)
	}
	if !strings.Contains(cycles.Text, " ± ") {
		t.Fatalf("cycles %q carry no interval: seeds not varied?", cycles.Text)
	}
	if spread := max(slices.Max(cycles.Samples)-cycles.Num, cycles.Num-slices.Min(cycles.Samples)); spread > 0.15*cycles.Num {
		t.Fatalf("samples %v spread implausibly wide around %.0f", cycles.Samples, cycles.Num)
	}
}

// Single's time normalized to the run without failures at each seed,
// over four trials, is a plausible overhead with every seed finished.
func TestNormalizedTrials(t *testing.T) {
	r := NewRunner()
	r.QuickDivisor = 20
	rc := RunConfig{Bench: "sunflow", HeapMult: 2, Collector: vm.StickyImmix,
		FailureAware: true, FailureRate: 0.25, ClusterPages: 2}
	norm := Single(rc).Run(Options{Seed: 1, Seeds: 4, Runner: r}).Tables[0].Rows[0][2]
	if norm.DNFs != 0 || len(norm.Samples) != 4 {
		t.Fatalf("normalized %+v, want a mean over 4 finished seeds", norm)
	}
	if norm.Num < 0.9 || norm.Num > 1.6 {
		t.Fatalf("normalized mean %v implausible", norm.Num)
	}
	for _, v := range norm.Samples {
		if v <= 0 {
			t.Fatalf("normalized samples %v: a non-positive ratio", norm.Samples)
		}
	}
}

// A seed that does not finish is counted, not averaged: at half the
// minimum heap with half the lines failed no seed finishes and the cell is
// DNF; at three quarters of it with a quarter failed some seeds finish and
// the cell is their mean beside the count of those that did not.
func TestSingleCountsDNFs(t *testing.T) {
	r := NewRunner()
	r.QuickDivisor = 20
	cycles := func(mult, rate float64) Cell {
		rc := RunConfig{Bench: "pmd", HeapMult: mult, Collector: vm.StickyImmix,
			FailureAware: true, FailureRate: rate}
		return Single(rc).Run(Options{Seed: 1, Seeds: 3, Runner: r}).Tables[0].Rows[0][1]
	}
	if c := cycles(0.5, 0.5); c.Kind != CellDNF || c.Text != "DNF" {
		t.Fatalf("no seed finishes, cell %+v; want DNF", c)
	}
	c := cycles(0.75, 0.25)
	if c.DNFs == 0 || c.DNFs == 3 || len(c.Samples) != 3-c.DNFs ||
		!strings.HasSuffix(c.Text, fmt.Sprintf(" (%d/3 DNF)", c.DNFs)) {
		t.Fatalf("some seeds finish, cell %+v; want their mean and (k/3 DNF)", c)
	}
}

// The merge rule on hand-made cells: agreement keeps the cell, numbers
// average with their interval printed in the cell's own verb, a label the
// seeds disagree on counts the seeds behind the first seed's text.
func TestMergeCell(t *testing.T) {
	for _, c := range []struct {
		in   []Cell
		want string
	}{
		{[]Cell{Text("10%"), Text("10%")}, "10%"},
		{[]Cell{Number(1, "%.3f"), Number(1, "%.3f")}, "1.000"},
		{[]Cell{DNF(), DNF(), DNF()}, "DNF"},
		{[]Cell{Number(25, "%.0f%%"), Number(35, "%.0f%%")}, "30% ± 10%"},
		{[]Cell{DNF(), Int(4), DNF()}, "4 (2/3 DNF)"},
		{[]Cell{Text("ok"), Text("MISS"), Text("ok")}, "2/3 ok"},
	} {
		if got := mergeCell(c.in).Text; got != c.want {
			t.Errorf("mergeCell(%v) = %q, want %q", texts(c.in), got, c.want)
		}
	}
}
