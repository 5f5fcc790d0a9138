package harness

import "fmt"

// tab5 is the §7.3 "balanced hardware clustering" ablation: larger
// clustering regions initially keep more pages logically intact, but the
// paper argues the advantage degenerates to the two-page case as failures
// grow, while larger regions add redirection-map pressure.
func tab5(o Options, r *Runner) *Report {
	perf := Table{
		Title:   "Geomean time at 2x heap (L256), normalized to unmodified S-IX",
		Columns: []string{"region size", "f=10%", "f=25%", "f=50%"},
	}
	demand := Table{
		Title:   "Mean borrowed perfect pages per run",
		Columns: []string{"region size", "f=10%", "f=25%", "f=50%"},
	}
	for _, reg := range []int{1, 2, 4, 8} {
		prow := []Cell{Textf("%d pages", reg)}
		drow := []Cell{Textf("%d pages", reg)}
		for _, f := range []float64{0.10, 0.25, 0.50} {
			rc := o.base().aware(f).cluster(reg)
			prow = append(prow, fnum(geoOver(r, o.benches(), rc, o.base())))
			drow = append(drow, meanBorrows(r, o.benches(), rc))
		}
		perf.Rows = append(perf.Rows, prow)
		demand.Rows = append(demand.Rows, drow)
	}
	perf.Notes = append(perf.Notes,
		"paper (§7.3): multi-page regions help; beyond two pages the advantage quickly degenerates")
	return &Report{Title: "Clustering region size (paper §7.3)", Tables: []Table{perf, demand}}
}

// tab6 sweeps the dynamic-failure arrival rate (§4.2): lines fail *during*
// execution, each recovery using the failure buffer, an OS up-call and a
// defragmenting collection when live data is affected.
func tab6(o Options, r *Runner) *Report {
	t := Table{
		Title:   "Dynamic failures during execution (2x heap, S-IXPCM), normalized to no dynamic failures",
		Columns: []string{"failures per run", "time", "collections", "OS remaps"},
	}
	base := o.base().bench("hsqldb").aware(0) // largest live set: worst-case recovery collections
	for _, every := range []int{0, 400, 100, 25} {
		rc := base
		rc.DynFailEvery = every
		res := r.Run(rc)
		label := "none"
		if every > 0 {
			label = fmt.Sprintf("every %d iters", every)
		}
		norm := Number(1, "%.3f")
		if every > 0 {
			norm = fnum(r.Normalized(rc, base))
		}
		if res.DNF {
			norm = DNF()
		}
		t.Rows = append(t.Rows, []Cell{
			Text(label), norm,
			Int(res.Collections),
			Int(res.OSRemaps),
		})
	}
	t.Notes = append(t.Notes,
		"paper (§4.2): a full-heap collection per affected failure, ~7 ms average; dynamic failures are rare in practice")
	return &Report{Title: "Dynamic failure rate sweep (paper §4.2)", Tables: []Table{t}}
}
