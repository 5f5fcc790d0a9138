package harness

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wearmem/internal/failmap"
	"wearmem/internal/seeded"
	"wearmem/internal/vm"
)

// canonicalCase is two configurations and whether the memo may run them as
// one program.
type canonicalCase struct {
	name  string
	a, b  RunConfig
	alias bool
}

// canonicalCases holds one pair per rule of canonical, each of which must
// run once, and the controls beside them, each of which must run twice.
func canonicalCases() []canonicalCase {
	base := RunConfig{Bench: "pmd", HeapMult: 2, Collector: vm.StickyImmix, Iterations: 50, Seed: 3}
	at := func(f float64) RunConfig {
		rc := base
		rc.FailureAware, rc.FailureRate = true, f
		return rc
	}
	with := func(rc RunConfig, edit func(*RunConfig)) RunConfig {
		edit(&rc)
		return rc
	}
	tpl := failmap.New(4 * failmap.PageSize)
	failmap.GenerateUniform(tpl, 0.1, rand.New(rand.NewSource(5)))
	injected := with(at(0.1), func(rc *RunConfig) { rc.Inject, rc.InjectName = tpl, "uniform-0.1" })
	// MS and S-MS give xalan at 3x heap equal Results at quick size (80
	// iterations). That is an outcome, not an identity of the inputs: they
	// stay apart.
	xalan3 := with(base, func(rc *RunConfig) { rc.Bench, rc.HeapMult, rc.Iterations = "xalan", 3, 80 })
	// The line size changes pmd's 50 iterations only over failures.
	line := func(size int) RunConfig {
		return with(at(0.1), func(rc *RunConfig) { rc.LineSize = size })
	}
	return []canonicalCase{
		{"LineSize 0/256", line(0), line(256), true},
		{"ClusterGran 0/64 at f=0.1", at(0.1), with(at(0.1), func(rc *RunConfig) { rc.ClusterGran = failmap.LineSize }), true},
		{"ClusterPages 2/0 at f=0", with(at(0), func(rc *RunConfig) { rc.ClusterPages = 2 }), at(0), true},
		{"ClusterGran 256/0 injected", with(injected, func(rc *RunConfig) { rc.ClusterGran = 256 }), injected, true},
		{"HeapMult 0/2", with(base, func(rc *RunConfig) { rc.HeapMult = 0 }), base, true},

		{"LineSize 128 vs 256", line(128), line(256), false},
		{"MS vs S-MS", with(xalan3, func(rc *RunConfig) { rc.Collector = vm.MarkSweep }), with(xalan3, func(rc *RunConfig) { rc.Collector = vm.StickyMarkSweep }), false},
		{"ClusterPages 2 vs 0 at f=0.1", with(at(0.1), func(rc *RunConfig) { rc.ClusterPages = 2 }), at(0.1), false},
		{"RecordWall true vs false", with(base, func(rc *RunConfig) { rc.RecordWall = true }), base, false},
	}
}

// Configurations that spell one program execute once; the controls, which
// differ in what execute runs, execute twice.
func TestCanonicalConfigsExecuteOnce(t *testing.T) {
	for _, c := range canonicalCases() {
		t.Run(c.name, func(t *testing.T) {
			var count int32
			stubExecute(t, nil, &count)
			r := NewRunner()
			r.QuickDivisor = 10
			r.Run(c.a)
			r.Run(c.b)
			want := int32(2)
			if c.alias {
				want = 1
			}
			if got := atomic.LoadInt32(&count); got != want {
				t.Fatalf("executed %d times, want %d", got, want)
			}
		})
	}
}

// Every rule of canonical is an identity of execute's inputs: simulating
// the raw configuration gives the Result of simulating its canonical form,
// and canonical is idempotent. A wrong rule (one that aliases a control)
// shows up here as a difference.
func TestCanonicalRunsWhatExecuteRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 36 simulations")
	}
	for _, c := range canonicalCases() {
		for i, rc := range []RunConfig{c.a, c.b} {
			canon := rc.canonical()
			if canon.canonical() != canon {
				t.Errorf("%s[%d]: canonical is not idempotent", c.name, i)
			}
			raw := rc
			if raw.HeapMult == 0 {
				raw.HeapMult = 2 // the documented default, which no layer below canonical applies
			}
			got, want := simulate(raw, new(drawnMaps)), simulate(canon, new(drawnMaps))
			if (got.WallNS > 0) != (want.WallNS > 0) {
				t.Errorf("%s[%d]: one run recorded wall time and the other did not", c.name, i)
			}
			got.WallNS, got.WallGCNS, got.WallTraceNS, got.WallSweepNS = 0, 0, 0, 0
			want.WallNS, want.WallGCNS, want.WallTraceNS, want.WallSweepNS = 0, 0, 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s[%d]: the raw configuration runs %d cycles, its canonical form %d",
					c.name, i, got.Cycles, want.Cycles)
			}
		}
	}
}

// Two spellings of one configuration requested at once share one flight.
func TestCanonicalAliasesSingleflight(t *testing.T) {
	var count int32
	gate := make(chan struct{})
	stubExecute(t, gate, &count)

	r := NewRunner()
	rc := RunConfig{Bench: "pmd", HeapMult: 2, Collector: vm.StickyImmix, Iterations: 50}
	const callers = 8
	results := make([]Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := rc
			if i%2 == 1 {
				c.LineSize = 256
			}
			results[i] = r.Run(c)
		}(i)
	}
	time.Sleep(10 * time.Millisecond) // let the callers queue on the flight
	close(gate)
	wg.Wait()

	if got := atomic.LoadInt32(&count); got != 1 {
		t.Fatalf("executed %d times, want 1", got)
	}
	for i, res := range results {
		if !reflect.DeepEqual(res, results[0]) {
			t.Fatalf("caller %d got %+v, caller 0 %+v", i, res, results[0])
		}
	}
}

// The quick suite's census: one runner over the fifteen experiments of a
// figs pass (every experiment of -exp all but tab2, which keeps its own
// runner) executes each canonical configuration once, while every report
// still lists every configuration its body asked for under its raw key.
// The counts are those of -quick -seed 42; an experiment whose
// configuration set changes moves them.
func TestQuickSuiteCensus(t *testing.T) {
	var count int32
	stubExecute(t, nil, &count)

	wantRuns := map[string]int{
		"fig3": 48, "fig4": 20, "fig5": 48, "fig6a": 36, "fig6b": 48, "fig7": 48,
		"fig8": 64, "fig9a": 120, "fig9b": 108, "fig10": 28,
		"tab1": 4, "tab3": 0, "tab4": 0, "tab5": 52, "tab6": 4,
	}
	r := NewRunner()
	raw, canon := map[string]bool{}, map[string]bool{}
	for _, e := range All() {
		if e.ID == "tab2" {
			continue
		}
		before := atomic.LoadInt32(&count)
		rep := e.Run(Options{Quick: true, Seed: 42, Parallel: 1, Runner: r})
		t.Logf("%-5s %3d runs listed, %3d executed", e.ID, len(rep.Runs), atomic.LoadInt32(&count)-before)
		if got, want := len(rep.Runs), wantRuns[e.ID]; got != want {
			t.Errorf("%s lists %d runs, want %d", e.ID, got, want)
		}
		for _, rec := range rep.Runs {
			if rec.Key != rec.Config.key() {
				t.Errorf("%s: a record's key is not its configuration's raw key", e.ID)
			}
			raw[rec.Key] = true
			canon[rec.Config.canonical().key()] = true
		}
	}
	got := int(atomic.LoadInt32(&count))
	if got != len(canon) {
		t.Errorf("executed %d configurations, %d distinct canonical keys", got, len(canon))
	}
	if len(raw) != 375 || len(canon) != 311 {
		t.Errorf("the pass names %d raw and %d canonical configurations, want 375 and 311", len(raw), len(canon))
	}
}

// A runner draws each failure map once, at the largest pool a
// configuration asked for, and hands smaller pools its prefix: both
// generators draw in line order, so the prefix must be a fresh draw at the
// smaller size. Pools come in rising and falling order (a redraw, then
// prefixes), with clusters that end past a pool's last line, and the
// uniform and clustered maps of one seed and rate never stand in for each
// other.
func TestDrawnMapPrefixIsAFreshDraw(t *testing.T) {
	pools := []int{3, 64, 65, 1000, 1024, 1, 700, 1025, 2}
	var maps drawnMaps
	for _, seed := range []int64{1, 7, 42} {
		for _, gran := range []int{0, 4 * failmap.PageSize, 2048} {
			for _, pages := range pools {
				rc := RunConfig{Seed: seed, FailureRate: 0.1, ClusterGran: gran}
				want := failmap.New(pages * failmap.PageSize)
				if gran > 0 {
					failmap.GenerateClustered(want, rc.FailureRate, gran, seeded.New(seed+1))
				} else {
					failmap.GenerateUniform(want, rc.FailureRate, seeded.New(seed+1))
				}
				if got := maps.generate(rc, pages); !got.Equal(want) {
					t.Fatalf("seed %d, granularity %d, %d pages: the runner's map differs from a fresh draw", seed, gran, pages)
				}
			}
		}
	}
	if len(maps.drawn) != 9 {
		t.Fatalf("the runner kept %d maps, want one per seed and granularity (9)", len(maps.drawn))
	}
}
