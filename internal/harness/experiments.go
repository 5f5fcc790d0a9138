package harness

import (
	"fmt"
	"math/rand"

	"wearmem/internal/failmap"
	"wearmem/internal/pcm"
	"wearmem/internal/stats"
	"wearmem/internal/vm"
	"wearmem/internal/workload"
)

// Options control an experiment run.
type Options struct {
	// Quick restricts the benchmark set and iteration counts so the
	// experiment finishes in seconds (unit tests, testing.B wrappers).
	Quick bool
	Seed  int64
	// Parallel is the number of workers used to execute independent
	// configurations (0 = GOMAXPROCS, 1 = serial).
	Parallel int
	// Runner, when set, is shared by every experiment run with these
	// options, so normalization baselines common across figures memoize
	// once (wearbench -exp all). Results are unaffected: the cache only
	// recalls what an isolated runner would recompute.
	Runner *Runner
}

func (o Options) benches() []string {
	if o.Quick {
		return []string{"pmd", "xalan", "sunflow", "hsqldb"}
	}
	var names []string
	for _, p := range workload.Suite() {
		names = append(names, p.Name)
	}
	return names
}

func (o Options) heapMults() []float64 {
	if o.Quick {
		return []float64{1.5, 2, 3}
	}
	return []float64{1.25, 1.5, 2, 2.5, 3, 4}
}

// maxHeap is the largest swept heap size, the one the heap-size figures
// normalize to.
func (o Options) maxHeap() float64 {
	mults := o.heapMults()
	return mults[len(mults)-1]
}

func (o Options) runner() *Runner {
	r := o.Runner
	if r == nil {
		r = NewRunner()
	}
	if o.Quick && r.QuickDivisor == 0 {
		r.QuickDivisor = 10
	}
	r.Workers = o.Parallel
	return r
}

// runnerUse is how an experiment's body gets the runner it executes on.
type runnerUse int

const (
	// sharedRunner is Options.Runner when the caller set one, so the
	// baselines the figures have in common memoize once.
	sharedRunner runnerUse = iota
	// ownRunner is a fresh runner the body may configure before its first
	// Run: tab2 alone runs full iteration counts, and corescale measures
	// wall-clock time and pins GOMAXPROCS, which needs one run at a time.
	ownRunner
	// noRunner is for a body that boots its machines itself or simulates
	// nothing: it is called once, with a nil runner and no planning pass.
	noRunner
)

// Experiment is one registry row: an identifier, the paper section the
// figure or table appears in or reproduces, and the body that builds its
// report.
type Experiment struct {
	ID      string
	Section string
	Title   string

	uses runnerUse
	body func(Options, *Runner) *Report
}

// Run executes the experiment: it resolves the runner, lets Collect plan,
// prefetch and assemble the body (so the report is byte-identical at any
// worker count), and stamps the report with the registry's ID.
func (e Experiment) Run(o Options) *Report {
	var rep *Report
	if e.uses == noRunner {
		rep = e.body(o, nil)
	} else {
		if e.uses == ownRunner {
			o.Runner = nil
		}
		r := o.runner()
		rep = r.Collect(func() *Report { return e.body(o, r) })
	}
	rep.ID = e.ID
	return rep
}

// All returns every experiment in figure/table order.
func All() []Experiment {
	return []Experiment{
		{"fig3", "§6.1", "Collector comparison across heap sizes (MS, IX, S-MS, S-IX)", sharedRunner, fig3},
		{"fig4", "§6.2", "Per-benchmark overhead of failure-aware S-IX with 2-page clustering", sharedRunner, fig4},
		{"fig5", "§6.2", "Memory reduction vs fragmentation: compensation breakdown", sharedRunner, fig5},
		{"fig6a", "§6.3", "Immix line size without failures", sharedRunner, fig6a},
		{"fig6b", "§6.3", "Immix line size with 10% failures, no clustering", sharedRunner, fig6b},
		{"fig7", "§6.3", "Failure-rate sweep per line size at 2x heap", sharedRunner, fig7},
		{"fig8", "§6.4", "Failure clustering granularity limit study", sharedRunner, fig8},
		{"fig9a", "§6.5", "Hardware clustering: performance", sharedRunner, fig9a},
		{"fig9b", "§6.5", "Hardware clustering: demand for perfect pages", sharedRunner, fig9b},
		{"fig10", "§6.5", "Per-benchmark one- vs two-page clustering", sharedRunner, fig10},
		{"tab1", "§4.2", "Dynamic failure handling cost (full-heap collection time)", sharedRunner, tab1},
		{"tab2", "§7.2", "Wear leveling considered harmful (ablation)", ownRunner, tab2()},
		{"tab3", "§3.2.1", "OS failure-table metadata size (ablation)", noRunner, tab3},
		{"tab4", "§3.1.1", "Failure buffer sizing (ablation)", noRunner, tab4},
		{"tab5", "§7.3", "Clustering region size (ablation, §7.3)", sharedRunner, tab5},
		{"tab6", "§4.2", "Dynamic failure rate sweep (ablation, §4.2)", sharedRunner, tab6},
	}
}

// Extras returns experiments runnable by id but excluded from "all":
// studies of this implementation rather than reproductions of the paper's
// figures, kept out so the pinned full-suite reports stay stable.
func Extras() []Experiment {
	return []Experiment{
		{"mutscale", "impl", "Multi-mutator scaling: runtime and parallel-trace speedup", sharedRunner, mutScale},
		{"corescale", "impl", "Core scaling: threaded engine wall-clock across GOMAXPROCS/mutators/trace workers", ownRunner, coreScale},
		{"kvlat", "impl", "Wear-aware KV server tail latency across failure regimes, both engines", sharedRunner, kvLat},
		{"pausecurve", "impl", "Pause budget vs throughput: incremental/concurrent marking sweep on the KV scenario", sharedRunner, pauseCurve},
		{"restart", "impl", "Restart survival: power cut mid-load, recovery latency vs device wear, post-recovery KV tail", noRunner, restart},
		{"policyzoo", "impl", "Placement/remap policy zoo: endurance, throughput and tail latency per policy, both engines", noRunner, policyZoo},
	}
}

// ByID returns the experiment with the given id, or nil.
func ByID(id string) *Experiment {
	for _, e := range append(All(), Extras()...) {
		if e.ID == id {
			return &e
		}
	}
	return nil
}

// base is the configuration the paper's figures start from and most of
// them normalize to: unmodified S-IX at twice the minimum heap (§5). It
// names no benchmark; bench, or geoOver for a whole suite, fills that in.
func (o Options) base() RunConfig {
	return RunConfig{HeapMult: 2, Collector: vm.StickyImmix, Seed: o.Seed}
}

func (rc RunConfig) bench(name string) RunConfig {
	rc.Bench = name
	return rc
}

func (rc RunConfig) heap(mult float64) RunConfig {
	rc.HeapMult = mult
	return rc
}

// aware is the failure-aware collector (S-IXPCM) over a pool with line
// failure rate f; at f = 0 the collector is aware with nothing to avoid.
func (rc RunConfig) aware(f float64) RunConfig {
	rc.FailureAware, rc.FailureRate = true, f
	return rc
}

// cluster adds failure-clustering hardware with regions of this many pages.
func (rc RunConfig) cluster(pages int) RunConfig {
	rc.ClusterPages = pages
	return rc
}

func (rc RunConfig) line(size int) RunConfig {
	rc.LineSize = size
	return rc
}

// geoOver runs rc for every benchmark, normalizes each against ref for the
// same benchmark, and returns the geometric mean. A DNF in any benchmark
// yields 0, matching the paper's truncated curves.
func geoOver(r *Runner, benches []string, rc, ref RunConfig) float64 {
	var xs []float64
	for _, b := range benches {
		n := r.Normalized(rc.bench(b), ref.bench(b))
		if n == 0 {
			return 0
		}
		xs = append(xs, n)
	}
	return stats.GeoMean(xs)
}

// heapSweep appends one row per swept heap size: the size, then each
// series' geomean time at that size, normalized to ref.
func heapSweep(r *Runner, o Options, t *Table, ref RunConfig, series []RunConfig) {
	for _, hm := range o.heapMults() {
		row := []Cell{Number(hm, "%.2f")}
		for _, s := range series {
			row = append(row, fnum(geoOver(r, o.benches(), s.heap(hm), ref)))
		}
		t.Rows = append(t.Rows, row)
	}
}

// meanBorrows is the mean number of perfect pages rc borrowed, over the
// benchmarks that finished it; DNF when none did.
func meanBorrows(r *Runner, benches []string, rc RunConfig) Cell {
	var borrows []float64
	for _, b := range benches {
		if res := r.Run(rc.bench(b)); !res.DNF {
			borrows = append(borrows, float64(res.Borrows))
		}
	}
	if len(borrows) == 0 {
		return DNF()
	}
	return Number(stats.Mean(borrows), "%.1f")
}

// padRow extends row to width cells with fill: DNF for a run that produced
// no numbers, Blank for columns that do not apply.
func padRow(row []Cell, width int, fill Cell) []Cell {
	for len(row) < width {
		row = append(row, fill)
	}
	return row
}

// fig3 compares the four collectors across heap sizes without failures.
func fig3(o Options, r *Runner) *Report {
	t := Table{
		Title:   "Geomean time, normalized to S-IX at the largest heap",
		Columns: []string{"heap(xmin)", "MS", "IX", "S-MS", "S-IX"},
	}
	var series []RunConfig
	for _, c := range []vm.CollectorKind{vm.MarkSweep, vm.Immix, vm.StickyMarkSweep, vm.StickyImmix} {
		rc := o.base()
		rc.Collector = c
		series = append(series, rc)
	}
	heapSweep(r, o, &t, o.base().heap(o.maxHeap()), series)
	return &Report{Title: "Collector comparison (paper Fig. 3)", Tables: []Table{t}}
}

// fig4 reports per-benchmark overheads of S-IX^PCM with two-page
// clustering at 0/10/25/50% failures, normalized to unmodified S-IX.
func fig4(o Options, r *Runner) *Report {
	rates := []float64{0, 0.10, 0.25, 0.50}
	benches := o.benches()
	if !o.Quick {
		benches = append([]string{}, benches...)
		benches = append(benches, "lusearch") // reported but excluded from means
	}
	t := Table{
		Title:   "Time normalized to unmodified S-IX (same heap, 2x min)",
		Columns: []string{"benchmark", "f=0%", "f=10%", "f=25%", "f=50%"},
	}
	perRate := make(map[float64][]float64)
	for _, b := range benches {
		row := []Cell{Text(b)}
		base := o.base().bench(b)
		for _, f := range rates {
			n := r.Normalized(base.aware(f).cluster(2), base)
			row = append(row, fnum(n))
			if b != "lusearch" && n > 0 {
				perRate[f] = append(perRate[f], n)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	mean := []Cell{Text("geomean (excl. buggy lusearch)")}
	for _, f := range rates {
		mean = append(mean, fnum(stats.GeoMean(perRate[f])))
	}
	t.Rows = append(t.Rows, mean)
	t.Notes = append(t.Notes,
		"paper: 0% at no failures, ~3.9% at 10%, ~12.4% at 50%; pmd worst, xalan resilient")
	return &Report{Title: "Failure-aware S-IX overhead (paper Fig. 4)", Tables: []Table{t}}
}

// fig5 breaks down the three failure effects across heap sizes: reduced
// memory (compensation), fragmentation, and clustering's mitigation.
func fig5(o Options, r *Runner) *Report {
	noFail, failing := o.base().aware(0), o.base().aware(0.10)
	noComp := failing
	noComp.NoCompensate = true
	t := Table{
		Title: "Geomean time vs heap size, normalized to no-failure S-IXPCM at the largest heap",
		Columns: []string{"heap(xmin)", "S-IXPCM (no failures)", "S-IXPCM 10% NoComp",
			"S-IXPCM 10%", "S-IXPCM 10% 2CL"},
	}
	heapSweep(r, o, &t, noFail.heap(o.maxHeap()),
		[]RunConfig{noFail, noComp, failing, failing.cluster(2)})
	t.Notes = append(t.Notes,
		"paper: NoComp worst at small heaps; comp closes the memory gap; clustering closes most of the rest")
	return &Report{Title: "Compensation breakdown (paper Fig. 5)", Tables: []Table{t}}
}

// lineSizes is Figs. 6a and 6b: the Immix line sizes across heap sizes at
// one failure rate, optionally next to the failure-free L256 curve.
func lineSizes(o Options, r *Runner, title string, rate float64, includeBaseline bool, note string) *Report {
	t := Table{Title: "Geomean time vs heap size, normalized to S-IX L256 at the largest heap"}
	t.Columns = []string{"heap(xmin)"}
	l256 := o.base().line(256)
	var series []RunConfig
	if includeBaseline {
		t.Columns = append(t.Columns, "S-IX L256 (no fail)")
		series = append(series, l256)
	}
	for _, ls := range []int{64, 128, 256} {
		t.Columns = append(t.Columns, fmt.Sprintf("L%d", ls))
		rc := o.base().line(ls)
		if rate > 0 {
			rc = rc.aware(rate)
		}
		series = append(series, rc)
	}
	heapSweep(r, o, &t, l256.heap(o.maxHeap()), series)
	t.Notes = append(t.Notes, note)
	return &Report{Title: title, Tables: []Table{t}}
}

// fig6a shows the effect of Immix line size without failures.
func fig6a(o Options, r *Runner) *Report {
	return lineSizes(o, r, "Line size, no failures (paper Fig. 6a)", 0, false,
		"paper: larger lines win, most at small heaps")
}

// fig6b shows the same at 10% failures without clustering hardware.
func fig6b(o Options, r *Runner) *Report {
	return lineSizes(o, r, "Line size, 10% failures (paper Fig. 6b)", 0.10, true,
		"paper: false failures punish larger lines")
}

// fig7 sweeps the failure rate at a fixed 2x heap for each line size.
func fig7(o Options, r *Runner) *Report {
	rates := []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.50}
	if o.Quick {
		rates = []float64{0, 0.10, 0.25, 0.50}
	}
	t := Table{
		Title:   "Geomean time at 2x heap, normalized to S-IX L256 without failures",
		Columns: []string{"failures", "L64", "L128", "L256"},
	}
	for _, f := range rates {
		row := []Cell{Number(f*100, "%.0f%%")}
		for _, ls := range []int{64, 128, 256} {
			rc := o.base().line(ls)
			if f > 0 {
				rc = rc.aware(f)
			}
			row = append(row, fnum(geoOver(r, o.benches(), rc, o.base().line(256))))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: L256 best at 0% but degrades fastest (false failures); L128 crossover ~15%")
	return &Report{Title: "Failure sweep per line size (paper Fig. 7)", Tables: []Table{t}}
}

// fig8 is the clustering-granularity limit study: failures arrive
// pre-clustered at power-of-two granularities.
func fig8(o Options, r *Runner) *Report {
	grans := []int{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}
	if o.Quick {
		grans = []int{64, 256, 1024, 4096, 16384}
	}
	t := Table{
		Title:   "Geomean time at 2x heap (L256), normalized to unmodified S-IX",
		Columns: []string{"cluster gran", "f=10%", "f=25%", "f=50%"},
	}
	for _, g := range grans {
		row := []Cell{Textf("%dB", g)}
		for _, f := range []float64{0.10, 0.25, 0.50} {
			rc := o.base().aware(f)
			rc.ClusterGran = g
			row = append(row, fnum(geoOver(r, o.benches(), rc, o.base())))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: 64B granularity DNFs at >=25%; clustering at 256B+ collapses the overhead")
	return &Report{Title: "Clustering granularity limit study (paper Fig. 8)", Tables: []Table{t}}
}

// clusterConfig is one row of Figs. 9a/9b: a line size with no, one-page or
// two-page clustering hardware.
type clusterConfig struct {
	label         string
	line, cluster int
}

func clusteringConfigs() []clusterConfig {
	var out []clusterConfig
	for cl, suffix := range []string{"", " 1CL", " 2CL"} {
		for _, ls := range []int{64, 128, 256} {
			out = append(out, clusterConfig{fmt.Sprintf("L%d%s", ls, suffix), ls, cl})
		}
	}
	return out
}

// fig9a compares no clustering vs 1- and 2-page clustering hardware across
// line sizes and failure rates.
func fig9a(o Options, r *Runner) *Report {
	t := Table{
		Title:   "Geomean time at 2x heap, normalized to unmodified S-IX (same line size)",
		Columns: []string{"config", "f=0%", "f=10%", "f=25%", "f=50%"},
	}
	for _, cfg := range clusteringConfigs() {
		row := []Cell{Text(cfg.label)}
		ref := o.base().line(cfg.line)
		for _, f := range []float64{0, 0.10, 0.25, 0.50} {
			rc := ref
			if f > 0 {
				rc = ref.aware(f).cluster(cfg.cluster)
			}
			row = append(row, fnum(geoOver(r, o.benches(), rc, ref)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: without clustering L256 fares worst (DNF at 25%); with clustering L256 is best")
	return &Report{Title: "Clustering hardware performance (paper Fig. 9a)", Tables: []Table{t}}
}

// fig9b reports the demand for perfect (borrowed) pages under the same
// configurations.
func fig9b(o Options, r *Runner) *Report {
	t := Table{
		Title:   "Mean borrowed perfect pages per run (2x heap)",
		Columns: []string{"config", "f=10%", "f=25%", "f=50%"},
	}
	for _, cfg := range clusteringConfigs() {
		row := []Cell{Text(cfg.label)}
		for _, f := range []float64{0.10, 0.25, 0.50} {
			row = append(row, meanBorrows(r, o.benches(),
				o.base().line(cfg.line).aware(f).cluster(cfg.cluster)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: two-page clustering cuts perfect-page demand ~3x and stays robust to 50%")
	return &Report{Title: "Demand for perfect pages (paper Fig. 9b)", Tables: []Table{t}}
}

// fig10 gives the per-benchmark view of 1- vs 2-page clustering.
func fig10(o Options, r *Runner) *Report {
	mk := func(cluster int) Table {
		t := Table{
			Title:   fmt.Sprintf("%d-page clustering: time normalized to unmodified S-IX", cluster),
			Columns: []string{"benchmark", "f=10%", "f=25%", "f=50%"},
		}
		for _, b := range o.benches() {
			row := []Cell{Text(b)}
			base := o.base().bench(b)
			for _, f := range []float64{0.10, 0.25, 0.50} {
				row = append(row, fnum(r.Normalized(base.aware(f).cluster(cluster), base)))
			}
			t.Rows = append(t.Rows, row)
		}
		return t
	}
	return &Report{Title: "Per-benchmark clustering (paper Fig. 10)", Tables: []Table{mk(1), mk(2)}}
}

// tab1 reproduces the §4.2 numbers: the cost of the full-heap collection
// that recovers from a dynamic failure, per benchmark.
func tab1(o Options, r *Runner) *Report {
	t := Table{
		Title:   "Full-heap collection cost at 2x heap (S-IX), the dynamic-failure recovery estimate",
		Columns: []string{"benchmark", "collections", "avg GC (Mcycles)", "max GC (Mcycles)", "total (Mcycles)"},
	}
	var avgs, counts []float64
	for _, b := range o.benches() {
		res := r.Run(o.base().bench(b))
		if res.DNF {
			t.Rows = append(t.Rows, padRow([]Cell{Text(b), DNF()}, len(t.Columns), Blank()))
			continue
		}
		t.Rows = append(t.Rows, []Cell{
			Text(b),
			Int(res.Collections),
			Number(float64(res.AvgFullGC)/1e6, "%.3f"),
			Number(float64(res.MaxGC)/1e6, "%.3f"),
			Number(float64(res.Cycles)/1e6, "%.1f"),
		})
		avgs = append(avgs, float64(res.AvgFullGC)/1e6)
		counts = append(counts, float64(res.Collections))
	}
	t.Rows = append(t.Rows, []Cell{Text("mean"),
		Number(stats.Mean(counts), "%.1f"),
		Number(stats.Mean(avgs), "%.3f"), Blank(), Blank()})
	t.Notes = append(t.Notes,
		"paper (§4.2): avg 7 ms, worst 44 ms (hsqldb), avg 14.7 collections per run")
	return &Report{Title: "Dynamic failure handling cost (paper §4.2)", Tables: []Table{t}}
}

// tab2 is the §7.2 ablation: wear leveling spreads failures uniformly,
// fragmenting memory; concentrated wear leaves contiguous working space
// and lower overhead at the same failure rate.
//
// The ablation's signal is qualitative (uniform wear fragments, and
// worn-map configurations thrash near their memory limit), so it always
// runs the reduced benchmark set, which keeps it affordable, at full
// iteration counts, which the memory pressure that separates the two wear
// policies requires (shortened runs mask it).
//
// Wearing a device is itself expensive and Collect calls a body twice, so
// the returned body keeps the failure maps of the seed it last wore: each
// policy's device is worn once, its map taken as it crosses each rate.
func tab2() func(Options, *Runner) *Report {
	rates := []float64{0.10, 0.25, 0.50}
	policies := []pcm.WearLeveling{pcm.StartGap, pcm.NoWearLeveling}
	var worn map[pcm.WearLeveling][]*failmap.Map // per policy, one map per rate
	var wornSeed int64
	return func(o Options, r *Runner) *Report {
		o.Quick = true
		r.QuickDivisor = 0
		if worn == nil || wornSeed != o.Seed {
			worn, wornSeed = make(map[pcm.WearLeveling][]*failmap.Map), o.Seed
			for _, wl := range policies {
				worn[wl] = wornFailureMaps(wl, wornTemplatePages, rates, o.Seed)
			}
		}
		t := Table{
			Title:   "Geomean time at 2x heap (S-IXPCM L256, no clustering hw), normalized to S-IX",
			Columns: []string{"wear policy", "f=10%", "f=25%", "f=50%"},
		}
		// Ideal leveling: perfectly uniform failures, the assumption behind
		// conventional wear-leveling designs and the case the paper argues
		// against.
		ideal := []Cell{Text("ideal leveling (uniform failures)")}
		for _, f := range rates {
			ideal = append(ideal, fnum(geoOver(r, o.benches(), o.base().aware(f), o.base())))
		}
		t.Rows = append(t.Rows, ideal)
		for _, wl := range policies {
			label := "start-gap (practical leveling)"
			if wl == pcm.NoWearLeveling {
				label = "no leveling (concentrated)"
			}
			row := []Cell{Text(label)}
			for i, f := range rates {
				rc := o.base().aware(f)
				rc.Inject, rc.InjectName = worn[wl][i], fmt.Sprintf("wear-%d-%.2f", wl, f)
				row = append(row, fnum(geoOver(r, o.benches(), rc, o.base())))
			}
			t.Rows = append(t.Rows, row)
		}
		t.Notes = append(t.Notes,
			"paper (§7.2): uniform wear causes fragmentation; concentrating writes delays the impact of failures",
			"start-gap's failure front follows its sweep, so even this 'leveler' leaves large contiguous regions",
			"writes-to-failure tell the other half: leveling survives ~2x more writes before reaching each rate (examples/wearout)")
		return &Report{Title: "Wear leveling considered harmful (paper §7.2)", Tables: []Table{t}}
	}
}

// wornTemplatePages sizes tab2's worn devices (a 2 MB template): the
// resulting failure *pattern* is what matters (the runner tiles the template
// across the pool), and reaching a 50% rate through skewed traffic on a
// realistic module would take billions of simulated writes.
const wornTemplatePages = 512

// wornFailureMaps wears one device of the given size under policy wl with
// skewed write traffic and returns its failure map as each of the ascending
// target rates is crossed. A lower target's run is an exact prefix of a
// higher one's (same device seed, same traffic stream), so every map is
// bit-for-bit the one a fresh device worn to that target alone would give.
func wornFailureMaps(wl pcm.WearLeveling, pages int, targets []float64, seed int64) []*failmap.Map {
	// GapInterval 1 keeps the start-gap rotation fast relative to the
	// endurance so leveling genuinely uniformizes wear before the target
	// rate is reached (slow rotation would merely smear the hot band).
	dev := pcm.NewDevice(pcm.Config{
		Size: pages * failmap.PageSize, Endurance: 300, Variation: 0.15,
		WearLeveling: wl, GapInterval: 1, Seed: seed,
	}, nil)
	maps := make([]*failmap.Map, 0, len(targets))
	dev.WearThrough(rand.New(rand.NewSource(seed+7)), targets, func(int) {
		maps = append(maps, dev.FailMap())
	})
	return maps
}

// tab3 quantifies the OS failure-table size (§3.2.1): raw bitmaps vs RLE.
func tab3(o Options, _ *Runner) *Report {
	const pages = 16384 // 64 MB PCM pool
	t := Table{
		Title:   "OS failure table for a 64 MB pool (raw 8 B/page bitmap vs RLE)",
		Columns: []string{"failure rate", "raw (KB)", "RLE uniform (KB)", "RLE 2CL-clustered (KB)"},
	}
	for _, f := range []float64{0, 0.01, 0.05, 0.10, 0.25, 0.50} {
		m := failmap.New(pages * failmap.PageSize)
		failmap.GenerateUniform(m, f, rand.New(rand.NewSource(o.Seed+int64(f*1000))))
		cl := failmap.ClusterHardware(m, 2)
		t.Rows = append(t.Rows, []Cell{
			Number(f*100, "%.0f%%"),
			Number(float64(m.RawSize())/1024, "%.1f"),
			Number(float64(m.CompressedSize())/1024, "%.1f"),
			Number(float64(cl.CompressedSize())/1024, "%.1f"),
		})
	}
	t.Notes = append(t.Notes,
		"paper (§3.2.1): raw table ~1.6% of pool; RLE compresses well, especially when new; clustering compresses further")
	return &Report{Title: "Failure-table metadata (paper §3.2.1)", Tables: []Table{t}}
}

// tab4 sizes the failure buffer (§3.1.1): bursts of failures against
// different buffer capacities, with the OS draining at a fixed latency.
func tab4(Options, *Runner) *Report {
	t := Table{
		Title:   "Write stalls during a 64-failure burst (OS drains one entry per 16 writes)",
		Columns: []string{"buffer capacity", "stalled writes", "max queue depth"},
	}
	for _, capacity := range []int{8, 16, 32, 64, 128} {
		stalls, maxDepth := failureBurst(capacity)
		t.Rows = append(t.Rows, []Cell{
			Int(capacity),
			Int(stalls),
			Int(maxDepth),
		})
	}
	t.Notes = append(t.Notes,
		"paper (§3.1.1): the buffer need only match load/store-queue scale; the watermark prevents data loss")
	return &Report{Title: "Failure buffer sizing (paper §3.1.1)", Tables: []Table{t}}
}

func failureBurst(capacity int) (stalls, maxDepth int) {
	dev := pcm.NewDevice(pcm.Config{
		Size: 64 * failmap.PageSize, Endurance: 1,
		BufferCap: capacity, BufferReserve: 2,
	}, nil)
	buf := make([]byte, failmap.LineSize)
	writes := 0
	line := 0
	failures := 0
	for failures < 64 {
		err := dev.Write(line, buf)
		writes++
		if err == pcm.ErrStalled {
			stalls++
			dev.Drain() // the OS services the interrupt
			continue
		}
		failures++ // endurance 1: every first write to a line fails
		line++
		if d := dev.BufferLen(); d > maxDepth {
			maxDepth = d
		}
		if writes%16 == 0 {
			dev.Drain()
		}
	}
	return stalls, maxDepth
}
