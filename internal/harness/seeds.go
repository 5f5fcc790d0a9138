package harness

import (
	"fmt"
	"slices"
	"strings"

	"wearmem/internal/stats"
)

// The paper reports every configuration as the mean of 20 invocations with
// 95% confidence intervals (§5). A run here is deterministic for a fixed
// seed, so repetition varies the seed, the one random input: Options.Seeds
// runs an experiment once per seed, seedStride apart, and mergeSeeds folds
// the reports into one.

// seedStride separates consecutive seeds of a multi-seed run.
const seedStride = 1000

// mergeSeeds folds one report per seed, all of one experiment, into the
// first: every cell merged over the seeds, and the union of the run
// records. A single report comes back unchanged.
func mergeSeeds(reps []*Report) *Report {
	out, cells := reps[0], make([]Cell, len(reps))
	for ti, t := range out.Tables {
		for ri, row := range t.Rows {
			for ci := range row {
				for si, rep := range reps {
					cells[si] = cellAt(rep, ti, ri, ci)
				}
				row[ci] = mergeCell(cells)
			}
		}
	}
	for _, rep := range reps[1:] {
		out.Runs = append(out.Runs, rep.Runs...)
	}
	slices.SortFunc(out.Runs, func(a, b RunRecord) int { return strings.Compare(a.Key, b.Key) })
	out.Runs = slices.CompactFunc(out.Runs, func(a, b RunRecord) bool { return a.Key == b.Key })
	return out
}

// cellAt is a report's cell at a position, blank where that report has
// none.
func cellAt(rep *Report, ti, ri, ci int) Cell {
	if ti < len(rep.Tables) && ri < len(rep.Tables[ti].Rows) && ci < len(rep.Tables[ti].Rows[ri]) {
		return rep.Tables[ti].Rows[ri][ci]
	}
	return Blank()
}

// mergeCell folds one cell position over the seeds:
//   - a cell every seed rendered the same stays as rendered (labels, axis
//     values, numbers the seed does not move);
//   - numbers and DNFs become the mean of the seeds that finished, with
//     "± ci95" over two or more and "(k/n DNF)" when some did not;
//   - anything else is a label the seeds disagree on: "k/n first", k the
//     seeds that rendered the first seed's text.
func mergeCell(cs []Cell) Cell {
	first, same, numeric := cs[0], 0, true
	var xs []float64
	format := ""
	for _, c := range cs {
		if c.Text == first.Text {
			same++
		}
		switch c.Kind {
		case CellNumber:
			xs = append(xs, c.Num)
			if format == "" {
				format = c.format
			}
		case CellDNF:
		default:
			numeric = false
		}
	}
	switch {
	case same == len(cs):
		return first
	case !numeric:
		return Textf("%d/%d %s", same, len(cs), first.Text)
	}
	mean := stats.Mean(xs)
	c := Number(mean, format)
	c.Samples, c.DNFs = xs, len(cs)-len(xs)
	if len(xs) > 1 {
		c.Text += " ± " + fmt.Sprintf(format, stats.CI95(xs))
	}
	if c.DNFs > 0 {
		c.Text += fmt.Sprintf(" (%d/%d DNF)", c.DNFs, len(cs))
	}
	return c
}

// Single is a one-row experiment over one configuration at Options.Seed:
// its cycles, its cycles normalized to the same run without failures or
// clustering at the same seed, its heap, collections and borrows. Three
// column groups join when the configuration asks for them: the parallel
// trace lanes, host wall-clock time (RecordWall) and the per-operation
// latency digest (Latency). A run that did not finish is DNF throughout.
func Single(rc RunConfig) Experiment {
	title := fmt.Sprintf("%s @ %.2fx heap, %s, line %d, failures %.0f%%, cluster %dp",
		rc.Bench, rc.HeapMult, rc.Collector, rc.LineSize, rc.FailureRate*100, rc.ClusterPages)
	return Experiment{ID: "single", Section: "impl", Title: title, uses: sharedRunner,
		body: func(o Options, r *Runner) *Report {
			rc := rc
			rc.Seed = o.Seed
			base := rc
			base.FailureAware, base.FailureRate, base.ClusterPages = false, 0, 0
			res := r.Run(rc)
			t := Table{Columns: []string{"benchmark", "cycles", "normalized to unmodified " + rc.Collector.String(),
				"heap bytes", "collections", "full", "avg GC", "max GC", "borrows"}}
			row := []Cell{Text(rc.Bench), cycleCell(res.Cycles), fnum(r.Normalized(rc, base)),
				Int(res.Heap), Int(res.Collections), Int(res.FullGCs),
				cycleCell(res.AvgFullGC), cycleCell(res.MaxGC), Int(res.Borrows)}
			if rc.traceLanes() > 1 {
				t.Columns = append(t.Columns, "traces", "trace work", "trace crit", "speedup", "steals")
				row = append(row, Int(res.ParallelTraces), cycleCell(res.TraceWorkCycles),
					cycleCell(res.TraceCritCycles), traceSpeedup(res), Int(int(res.TraceSteals)))
			}
			if rc.RecordWall {
				t.Columns = append(t.Columns, "wall ms", "gc ms", "trace ms", "sweep ms")
				row = append(row, ms(res.WallNS), ms(res.WallGCNS), ms(res.WallTraceNS), ms(res.WallSweepNS))
			}
			if rc.Latency {
				t.Columns = append(t.Columns, latencyColumns...)
				row = append(row, kvLatRow(rc.Bench, res)[1:]...)
			}
			if res.DNF {
				row = padRow(row[:1], len(t.Columns), DNF())
			}
			t.Rows = [][]Cell{row}
			return &Report{Title: title, Tables: []Table{t}}
		}}
}
