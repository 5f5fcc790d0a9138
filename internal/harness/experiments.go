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

// Experiment couples an identifier with its generator and the paper
// section it reproduces.
type Experiment struct {
	ID      string
	Section string // paper section the figure/table appears in or reproduces
	Title   string
	Run     func(Options) *Report
}

// All returns every experiment in figure/table order.
func All() []Experiment {
	return []Experiment{
		{"fig3", "§6.1", "Collector comparison across heap sizes (MS, IX, S-MS, S-IX)", Fig3},
		{"fig4", "§6.2", "Per-benchmark overhead of failure-aware S-IX with 2-page clustering", Fig4},
		{"fig5", "§6.2", "Memory reduction vs fragmentation: compensation breakdown", Fig5},
		{"fig6a", "§6.3", "Immix line size without failures", Fig6a},
		{"fig6b", "§6.3", "Immix line size with 10% failures, no clustering", Fig6b},
		{"fig7", "§6.3", "Failure-rate sweep per line size at 2x heap", Fig7},
		{"fig8", "§6.4", "Failure clustering granularity limit study", Fig8},
		{"fig9a", "§6.5", "Hardware clustering: performance", Fig9a},
		{"fig9b", "§6.5", "Hardware clustering: demand for perfect pages", Fig9b},
		{"fig10", "§6.5", "Per-benchmark one- vs two-page clustering", Fig10},
		{"tab1", "§4.2", "Dynamic failure handling cost (full-heap collection time)", Tab1},
		{"tab2", "§7.2", "Wear leveling considered harmful (ablation)", Tab2},
		{"tab3", "§3.2.1", "OS failure-table metadata size (ablation)", Tab3},
		{"tab4", "§3.1.1", "Failure buffer sizing (ablation)", Tab4},
		{"tab5", "§7.3", "Clustering region size (ablation, §7.3)", Tab5},
		{"tab6", "§4.2", "Dynamic failure rate sweep (ablation, §4.2)", Tab6},
	}
}

// Extras returns experiments runnable by id but excluded from "all":
// studies of this implementation rather than reproductions of the paper's
// figures, kept out so the pinned full-suite reports stay stable.
func Extras() []Experiment {
	return []Experiment{
		{"mutscale", "impl", "Multi-mutator scaling: runtime and parallel-trace speedup", MutScale},
		{"corescale", "impl", "Core scaling: threaded engine wall-clock across GOMAXPROCS/mutators/trace workers", CoreScale},
		{"kvlat", "impl", "Wear-aware KV server tail latency across failure regimes, both engines", KVLat},
		{"pausecurve", "impl", "Pause budget vs throughput: incremental/concurrent marking sweep on the KV scenario", PauseCurve},
		{"restart", "impl", "Restart survival: power cut mid-load, recovery latency vs device wear, post-recovery KV tail", Restart},
		{"policyzoo", "impl", "Placement/remap policy zoo: endurance, throughput and tail latency per policy, both engines", PolicyZoo},
	}
}

// ByID returns the experiment with the given id, or nil.
func ByID(id string) *Experiment {
	for _, e := range append(All(), Extras()...) {
		if e.ID == id {
			e := e
			return &e
		}
	}
	return nil
}

// geoOver runs cfg for every benchmark (mutating rc.Bench), normalizes
// each against base (also per benchmark), and returns the geometric mean.
// A DNF in any benchmark yields 0, matching the paper's truncated curves.
func geoOver(r *Runner, benches []string, mk func(bench string) (rc, base RunConfig)) float64 {
	var xs []float64
	for _, b := range benches {
		rc, base := mk(b)
		n := r.Normalized(rc, base)
		if n == 0 {
			return 0
		}
		xs = append(xs, n)
	}
	return stats.GeoMean(xs)
}

// Fig3 compares the four collectors across heap sizes without failures.
func Fig3(o Options) *Report {
	r := o.runner()
	return r.Collect(func() *Report {
		collectors := []vm.CollectorKind{vm.MarkSweep, vm.Immix, vm.StickyMarkSweep, vm.StickyImmix}
		maxMult := o.heapMults()[len(o.heapMults())-1]
		t := Table{
			Title:   "Geomean time, normalized to S-IX at the largest heap",
			Columns: append([]string{"heap(xmin)"}, "MS", "IX", "S-MS", "S-IX"),
		}
		for _, hm := range o.heapMults() {
			row := []Cell{Number(hm, "%.2f")}
			for _, c := range collectors {
				g := geoOver(r, o.benches(), func(b string) (RunConfig, RunConfig) {
					return RunConfig{Bench: b, HeapMult: hm, Collector: c, Seed: o.Seed},
						RunConfig{Bench: b, HeapMult: maxMult, Collector: vm.StickyImmix, Seed: o.Seed}
				})
				row = append(row, fnum(g))
			}
			t.Rows = append(t.Rows, row)
		}
		return &Report{ID: "fig3", Title: "Collector comparison (paper Fig. 3)", Tables: []Table{t}}
	})
}

// Fig4 reports per-benchmark overheads of S-IX^PCM with two-page
// clustering at 0/10/25/50% failures, normalized to unmodified S-IX.
func Fig4(o Options) *Report {
	r := o.runner()
	return r.Collect(func() *Report {
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
			base := RunConfig{Bench: b, HeapMult: 2, Collector: vm.StickyImmix, Seed: o.Seed}
			for _, f := range rates {
				rc := RunConfig{
					Bench: b, HeapMult: 2, Collector: vm.StickyImmix,
					FailureAware: true, FailureRate: f, ClusterPages: 2, Seed: o.Seed,
				}
				n := r.Normalized(rc, base)
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
		return &Report{ID: "fig4", Title: "Failure-aware S-IX overhead (paper Fig. 4)", Tables: []Table{t}}
	})
}

// Fig5 breaks down the three failure effects across heap sizes: reduced
// memory (compensation), fragmentation, and clustering's mitigation.
func Fig5(o Options) *Report {
	r := o.runner()
	return r.Collect(func() *Report { return fig5Body(o, r) })
}

func fig5Body(o Options, r *Runner) *Report {
	maxMult := o.heapMults()[len(o.heapMults())-1]
	base := func(b string) RunConfig {
		return RunConfig{Bench: b, HeapMult: maxMult, Collector: vm.StickyImmix,
			FailureAware: true, Seed: o.Seed}
	}
	series := []struct {
		label string
		rc    func(b string, hm float64) RunConfig
	}{
		{"S-IXPCM (no failures)", func(b string, hm float64) RunConfig {
			return RunConfig{Bench: b, HeapMult: hm, Collector: vm.StickyImmix,
				FailureAware: true, Seed: o.Seed}
		}},
		{"S-IXPCM 10% NoComp", func(b string, hm float64) RunConfig {
			return RunConfig{Bench: b, HeapMult: hm, Collector: vm.StickyImmix,
				FailureAware: true, FailureRate: 0.10, NoCompensate: true, Seed: o.Seed}
		}},
		{"S-IXPCM 10%", func(b string, hm float64) RunConfig {
			return RunConfig{Bench: b, HeapMult: hm, Collector: vm.StickyImmix,
				FailureAware: true, FailureRate: 0.10, Seed: o.Seed}
		}},
		{"S-IXPCM 10% 2CL", func(b string, hm float64) RunConfig {
			return RunConfig{Bench: b, HeapMult: hm, Collector: vm.StickyImmix,
				FailureAware: true, FailureRate: 0.10, ClusterPages: 2, Seed: o.Seed}
		}},
	}
	t := Table{Title: "Geomean time vs heap size, normalized to no-failure S-IXPCM at the largest heap"}
	t.Columns = []string{"heap(xmin)"}
	for _, s := range series {
		t.Columns = append(t.Columns, s.label)
	}
	for _, hm := range o.heapMults() {
		row := []Cell{Number(hm, "%.2f")}
		for _, s := range series {
			g := geoOver(r, o.benches(), func(b string) (RunConfig, RunConfig) {
				return s.rc(b, hm), base(b)
			})
			row = append(row, fnum(g))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: NoComp worst at small heaps; comp closes the memory gap; clustering closes most of the rest")
	return &Report{ID: "fig5", Title: "Compensation breakdown (paper Fig. 5)", Tables: []Table{t}}
}

func lineSizeFigure(o Options, id, title string, rate float64, includeBaseline bool) *Report {
	r := o.runner()
	return r.Collect(func() *Report { return lineSizeBody(o, r, id, title, rate, includeBaseline) })
}

func lineSizeBody(o Options, r *Runner, id, title string, rate float64, includeBaseline bool) *Report {
	maxMult := o.heapMults()[len(o.heapMults())-1]
	lines := []int{64, 128, 256}
	t := Table{Title: "Geomean time vs heap size, normalized to S-IX L256 at the largest heap"}
	t.Columns = []string{"heap(xmin)"}
	if includeBaseline {
		t.Columns = append(t.Columns, "S-IX L256 (no fail)")
	}
	for _, ls := range lines {
		t.Columns = append(t.Columns, fmt.Sprintf("L%d", ls))
	}
	base := func(b string) RunConfig {
		return RunConfig{Bench: b, HeapMult: maxMult, Collector: vm.StickyImmix,
			LineSize: 256, Seed: o.Seed}
	}
	for _, hm := range o.heapMults() {
		row := []Cell{Number(hm, "%.2f")}
		if includeBaseline {
			g := geoOver(r, o.benches(), func(b string) (RunConfig, RunConfig) {
				return RunConfig{Bench: b, HeapMult: hm, Collector: vm.StickyImmix,
					LineSize: 256, Seed: o.Seed}, base(b)
			})
			row = append(row, fnum(g))
		}
		for _, ls := range lines {
			g := geoOver(r, o.benches(), func(b string) (RunConfig, RunConfig) {
				rc := RunConfig{Bench: b, HeapMult: hm, Collector: vm.StickyImmix,
					LineSize: ls, Seed: o.Seed}
				if rate > 0 {
					rc.FailureAware = true
					rc.FailureRate = rate
				}
				return rc, base(b)
			})
			row = append(row, fnum(g))
		}
		t.Rows = append(t.Rows, row)
	}
	return &Report{ID: id, Title: title, Tables: []Table{t}}
}

// Fig6a shows the effect of Immix line size without failures.
func Fig6a(o Options) *Report {
	rep := lineSizeFigure(o, "fig6a", "Line size, no failures (paper Fig. 6a)", 0, false)
	rep.Tables[0].Notes = append(rep.Tables[0].Notes, "paper: larger lines win, most at small heaps")
	return rep
}

// Fig6b shows the same at 10% failures without clustering hardware.
func Fig6b(o Options) *Report {
	rep := lineSizeFigure(o, "fig6b", "Line size, 10% failures (paper Fig. 6b)", 0.10, true)
	rep.Tables[0].Notes = append(rep.Tables[0].Notes, "paper: false failures punish larger lines")
	return rep
}

// Fig7 sweeps the failure rate at a fixed 2x heap for each line size.
func Fig7(o Options) *Report {
	r := o.runner()
	return r.Collect(func() *Report { return fig7Body(o, r) })
}

func fig7Body(o Options, r *Runner) *Report {
	rates := []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.50}
	if o.Quick {
		rates = []float64{0, 0.10, 0.25, 0.50}
	}
	lines := []int{64, 128, 256}
	t := Table{
		Title:   "Geomean time at 2x heap, normalized to S-IX L256 without failures",
		Columns: []string{"failures", "L64", "L128", "L256"},
	}
	base := func(b string) RunConfig {
		return RunConfig{Bench: b, HeapMult: 2, Collector: vm.StickyImmix, LineSize: 256, Seed: o.Seed}
	}
	for _, f := range rates {
		row := []Cell{Number(f*100, "%.0f%%")}
		for _, ls := range lines {
			g := geoOver(r, o.benches(), func(b string) (RunConfig, RunConfig) {
				rc := RunConfig{Bench: b, HeapMult: 2, Collector: vm.StickyImmix,
					LineSize: ls, Seed: o.Seed}
				if f > 0 {
					rc.FailureAware = true
					rc.FailureRate = f
				}
				return rc, base(b)
			})
			row = append(row, fnum(g))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: L256 best at 0% but degrades fastest (false failures); L128 crossover ~15%")
	return &Report{ID: "fig7", Title: "Failure sweep per line size (paper Fig. 7)", Tables: []Table{t}}
}

// Fig8 is the clustering-granularity limit study: failures arrive
// pre-clustered at power-of-two granularities.
func Fig8(o Options) *Report {
	r := o.runner()
	return r.Collect(func() *Report { return fig8Body(o, r) })
}

func fig8Body(o Options, r *Runner) *Report {
	grans := []int{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}
	if o.Quick {
		grans = []int{64, 256, 1024, 4096, 16384}
	}
	rates := []float64{0.10, 0.25, 0.50}
	t := Table{
		Title:   "Geomean time at 2x heap (L256), normalized to unmodified S-IX",
		Columns: []string{"cluster gran", "f=10%", "f=25%", "f=50%"},
	}
	base := func(b string) RunConfig {
		return RunConfig{Bench: b, HeapMult: 2, Collector: vm.StickyImmix, Seed: o.Seed}
	}
	for _, g := range grans {
		row := []Cell{Textf("%dB", g)}
		for _, f := range rates {
			v := geoOver(r, o.benches(), func(b string) (RunConfig, RunConfig) {
				return RunConfig{Bench: b, HeapMult: 2, Collector: vm.StickyImmix,
					FailureAware: true, FailureRate: f, ClusterGran: g, Seed: o.Seed}, base(b)
			})
			row = append(row, fnum(v))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: 64B granularity DNFs at >=25%; clustering at 256B+ collapses the overhead")
	return &Report{ID: "fig8", Title: "Clustering granularity limit study (paper Fig. 8)", Tables: []Table{t}}
}

func clusteringConfigs() []struct {
	label   string
	line    int
	cluster int
} {
	var out []struct {
		label   string
		line    int
		cluster int
	}
	for _, cl := range []int{0, 1, 2} {
		for _, ls := range []int{64, 128, 256} {
			label := fmt.Sprintf("L%d", ls)
			switch cl {
			case 1:
				label += " 1CL"
			case 2:
				label += " 2CL"
			}
			out = append(out, struct {
				label   string
				line    int
				cluster int
			}{label, ls, cl})
		}
	}
	return out
}

// Fig9a compares no clustering vs 1- and 2-page clustering hardware across
// line sizes and failure rates.
func Fig9a(o Options) *Report {
	r := o.runner()
	return r.Collect(func() *Report { return fig9aBody(o, r) })
}

func fig9aBody(o Options, r *Runner) *Report {
	rates := []float64{0, 0.10, 0.25, 0.50}
	t := Table{
		Title:   "Geomean time at 2x heap, normalized to unmodified S-IX (same line size)",
		Columns: []string{"config", "f=0%", "f=10%", "f=25%", "f=50%"},
	}
	for _, cfg := range clusteringConfigs() {
		row := []Cell{Text(cfg.label)}
		for _, f := range rates {
			v := geoOver(r, o.benches(), func(b string) (RunConfig, RunConfig) {
				rc := RunConfig{Bench: b, HeapMult: 2, Collector: vm.StickyImmix,
					LineSize: cfg.line, Seed: o.Seed}
				if f > 0 {
					rc.FailureAware = true
					rc.FailureRate = f
					rc.ClusterPages = cfg.cluster
				}
				return rc, RunConfig{Bench: b, HeapMult: 2, Collector: vm.StickyImmix,
					LineSize: cfg.line, Seed: o.Seed}
			})
			row = append(row, fnum(v))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: without clustering L256 fares worst (DNF at 25%); with clustering L256 is best")
	return &Report{ID: "fig9a", Title: "Clustering hardware performance (paper Fig. 9a)", Tables: []Table{t}}
}

// Fig9b reports the demand for perfect (borrowed) pages under the same
// configurations.
func Fig9b(o Options) *Report {
	r := o.runner()
	return r.Collect(func() *Report { return fig9bBody(o, r) })
}

func fig9bBody(o Options, r *Runner) *Report {
	rates := []float64{0.10, 0.25, 0.50}
	t := Table{
		Title:   "Mean borrowed perfect pages per run (2x heap)",
		Columns: []string{"config", "f=10%", "f=25%", "f=50%"},
	}
	for _, cfg := range clusteringConfigs() {
		row := []Cell{Text(cfg.label)}
		for _, f := range rates {
			var borrows []float64
			for _, b := range o.benches() {
				res := r.Run(RunConfig{Bench: b, HeapMult: 2, Collector: vm.StickyImmix,
					LineSize: cfg.line, FailureAware: true, FailureRate: f,
					ClusterPages: cfg.cluster, Seed: o.Seed})
				if !res.DNF {
					borrows = append(borrows, float64(res.Borrows))
				}
			}
			if len(borrows) == 0 {
				row = append(row, DNF())
			} else {
				row = append(row, Number(stats.Mean(borrows), "%.1f"))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: two-page clustering cuts perfect-page demand ~3x and stays robust to 50%")
	return &Report{ID: "fig9b", Title: "Demand for perfect pages (paper Fig. 9b)", Tables: []Table{t}}
}

// Fig10 gives the per-benchmark view of 1- vs 2-page clustering.
func Fig10(o Options) *Report {
	r := o.runner()
	return r.Collect(func() *Report { return fig10Body(o, r) })
}

func fig10Body(o Options, r *Runner) *Report {
	rates := []float64{0.10, 0.25, 0.50}
	mk := func(cluster int) Table {
		t := Table{
			Title:   fmt.Sprintf("%d-page clustering: time normalized to unmodified S-IX", cluster),
			Columns: []string{"benchmark", "f=10%", "f=25%", "f=50%"},
		}
		for _, b := range o.benches() {
			row := []Cell{Text(b)}
			base := RunConfig{Bench: b, HeapMult: 2, Collector: vm.StickyImmix, Seed: o.Seed}
			for _, f := range rates {
				rc := RunConfig{Bench: b, HeapMult: 2, Collector: vm.StickyImmix,
					FailureAware: true, FailureRate: f, ClusterPages: cluster, Seed: o.Seed}
				row = append(row, fnum(r.Normalized(rc, base)))
			}
			t.Rows = append(t.Rows, row)
		}
		return t
	}
	return &Report{ID: "fig10", Title: "Per-benchmark clustering (paper Fig. 10)",
		Tables: []Table{mk(1), mk(2)}}
}

// Tab1 reproduces the §4.2 numbers: the cost of the full-heap collection
// that recovers from a dynamic failure, per benchmark.
func Tab1(o Options) *Report {
	r := o.runner()
	return r.Collect(func() *Report { return tab1Body(o, r) })
}

func tab1Body(o Options, r *Runner) *Report {
	t := Table{
		Title:   "Full-heap collection cost at 2x heap (S-IX), the dynamic-failure recovery estimate",
		Columns: []string{"benchmark", "collections", "avg GC (Mcycles)", "max GC (Mcycles)", "total (Mcycles)"},
	}
	var avgs, counts []float64
	for _, b := range o.benches() {
		res := r.Run(RunConfig{Bench: b, HeapMult: 2, Collector: vm.StickyImmix, Seed: o.Seed})
		if res.DNF {
			t.Rows = append(t.Rows, []Cell{Text(b), DNF(), Blank(), Blank(), Blank()})
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
	return &Report{ID: "tab1", Title: "Dynamic failure handling cost (paper §4.2)", Tables: []Table{t}}
}

// Tab2 is the §7.2 ablation: wear leveling spreads failures uniformly,
// fragmenting memory; concentrated wear leaves contiguous working space
// and lower overhead at the same failure rate.
func Tab2(o Options) *Report {
	// The ablation's signal is qualitative (uniform wear fragments, and
	// worn-map configurations thrash near their memory limit), so it
	// always runs the reduced benchmark set at shortened iterations.
	// The reduced benchmark set keeps the ablation affordable; full
	// iteration counts are required for the memory pressure that separates
	// the two wear policies (shortened runs mask it).
	o.Quick = true
	o.Runner = nil // private runner: Tab2 alone runs full iteration counts
	r := o.runner()
	r.QuickDivisor = 0
	rates := []float64{0.10, 0.25, 0.50}
	policies := []pcm.WearLeveling{pcm.StartGap, pcm.NoWearLeveling}
	// Wearing a device is itself expensive, so each policy's device is worn
	// once, its failure map taken as it crosses each rate, and all of that
	// happens before the report body (which the parallel planning pass runs
	// twice).
	worn := make(map[pcm.WearLeveling][]*failmap.Map) // per policy, one map per rate
	for _, wl := range policies {
		worn[wl] = wornFailureMaps(wl, wornTemplatePages, rates, o.Seed)
	}
	return r.Collect(func() *Report {
		t := Table{
			Title:   "Geomean time at 2x heap (S-IXPCM L256, no clustering hw), normalized to S-IX",
			Columns: []string{"wear policy", "f=10%", "f=25%", "f=50%"},
		}
		// Ideal leveling: perfectly uniform failures, the assumption behind
		// conventional wear-leveling designs and the case the paper argues
		// against.
		ideal := []Cell{Text("ideal leveling (uniform failures)")}
		for _, f := range rates {
			v := geoOver(r, o.benches(), func(b string) (RunConfig, RunConfig) {
				return RunConfig{Bench: b, HeapMult: 2, Collector: vm.StickyImmix,
						FailureAware: true, FailureRate: f, Seed: o.Seed},
					RunConfig{Bench: b, HeapMult: 2, Collector: vm.StickyImmix, Seed: o.Seed}
			})
			ideal = append(ideal, fnum(v))
		}
		t.Rows = append(t.Rows, ideal)
		for _, wl := range policies {
			label := "start-gap (practical leveling)"
			if wl == pcm.NoWearLeveling {
				label = "no leveling (concentrated)"
			}
			row := []Cell{Text(label)}
			for i, f := range rates {
				inject := worn[wl][i]
				v := geoOver(r, o.benches(), func(b string) (RunConfig, RunConfig) {
					return RunConfig{Bench: b, HeapMult: 2, Collector: vm.StickyImmix,
							FailureAware: true, FailureRate: f,
							Inject: inject, InjectName: fmt.Sprintf("wear-%d-%.2f", wl, f), Seed: o.Seed},
						RunConfig{Bench: b, HeapMult: 2, Collector: vm.StickyImmix, Seed: o.Seed}
				})
				row = append(row, fnum(v))
			}
			t.Rows = append(t.Rows, row)
		}
		t.Notes = append(t.Notes,
			"paper (§7.2): uniform wear causes fragmentation; concentrating writes delays the impact of failures",
			"start-gap's failure front follows its sweep, so even this 'leveler' leaves large contiguous regions",
			"writes-to-failure tell the other half: leveling survives ~2x more writes before reaching each rate (examples/wearout)")
		return &Report{ID: "tab2", Title: "Wear leveling considered harmful (paper §7.2)", Tables: []Table{t}}
	})
}

// wornTemplatePages sizes Tab2's worn devices (a 2 MB template): the
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
	dev := wearDevice(wl, pages, seed)
	maps := make([]*failmap.Map, 0, len(targets))
	wearThrough(dev, rand.New(rand.NewSource(seed+7)), targets, func(int) {
		maps = append(maps, dev.FailMap())
	})
	return maps
}

// wearDevice builds the low-endurance module the wear study drives.
func wearDevice(wl pcm.WearLeveling, pages int, seed int64) *pcm.Device {
	// GapInterval 1 keeps the start-gap rotation fast relative to the
	// endurance so leveling genuinely uniformizes wear before the target
	// rate is reached (slow rotation would merely smear the hot band).
	return pcm.NewDevice(pcm.Config{
		Size: pages * failmap.PageSize, Endurance: 300, Variation: 0.15,
		WearLeveling: wl, GapInterval: 1, Seed: seed,
	}, nil)
}

// wearThrough drives dev with the skewed traffic stream of rng, draining
// every failure as the OS would, and calls reached(i) as the failure rate
// crosses targets[i] (ascending). Line indices are drawn in blocks and fed
// to WriteRun, which returns at every failure, so the rate is tested
// wherever it can have changed; indices drawn past the last crossing are
// never written, and rng is the caller's to discard.
func wearThrough(dev *pcm.Device, rng *rand.Rand, targets []float64, reached func(i int)) {
	buf := make([]byte, failmap.LineSize)
	block := make([]int, 512)
	next := block[:0] // drawn, not yet written
	for i, target := range targets {
		for dev.FailureRate() < target {
			if len(next) == 0 {
				dev.SkewedLines(rng, block)
				next = block
			}
			n, _ := dev.WriteRun(next, buf) // never stalls: the buffer is empty on entry
			next = next[n:]
			for dev.BufferLen() > 0 {
				dev.Drain()
			}
		}
		reached(i)
	}
}

// Tab3 quantifies the OS failure-table size (§3.2.1): raw bitmaps vs RLE.
func Tab3(o Options) *Report {
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
	return &Report{ID: "tab3", Title: "Failure-table metadata (paper §3.2.1)", Tables: []Table{t}}
}

// Tab4 sizes the failure buffer (§3.1.1): bursts of failures against
// different buffer capacities, with the OS draining at a fixed latency.
func Tab4(o Options) *Report {
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
	return &Report{ID: "tab4", Title: "Failure buffer sizing (paper §3.1.1)", Tables: []Table{t}}
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
