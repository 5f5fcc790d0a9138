package harness

import (
	"bytes"
	"reflect"
	"testing"

	"wearmem/internal/vm"
)

func quickOpts() Options { return Options{Quick: true, Seed: 1} }

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner()
	r.QuickDivisor = 20
	rc := RunConfig{Bench: "sunflow", HeapMult: 2, Collector: vm.StickyImmix, Seed: 1}
	a := r.Run(rc)
	b := r.Run(rc)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("memoized results differ")
	}
	if a.DNF {
		t.Fatal("sunflow DNF at 2x heap")
	}
	if a.Cycles == 0 || a.Collections == 0 {
		t.Fatalf("implausible result %+v", a)
	}
}

func TestNormalizedAgainstSelfIsOne(t *testing.T) {
	r := NewRunner()
	r.QuickDivisor = 20
	rc := RunConfig{Bench: "xalan", HeapMult: 2, Collector: vm.StickyImmix, Seed: 1}
	if n := r.Normalized(rc, rc); n != 1 {
		t.Fatalf("self-normalization = %v", n)
	}
}

func TestFailureAwareZeroFailuresNearBaseline(t *testing.T) {
	// The paper's headline: failure-aware S-IX adds no measurable overhead
	// without failures. Allow a 2% modelling tolerance.
	r := NewRunner()
	r.QuickDivisor = 4
	for _, b := range []string{"pmd", "xalan"} {
		rc := RunConfig{Bench: b, HeapMult: 2, Collector: vm.StickyImmix,
			FailureAware: true, Seed: 1}
		base := RunConfig{Bench: b, HeapMult: 2, Collector: vm.StickyImmix, Seed: 1}
		n := r.Normalized(rc, base)
		if n < 0.98 || n > 1.02 {
			t.Errorf("%s: failure-aware at f=0 normalized %v, want ~1.0", b, n)
		}
	}
}

func TestFailuresAlwaysCost(t *testing.T) {
	// With two-page clustering, every failure rate must cost measurable
	// time on the fragmentation-sensitive benchmark. (The reproduction's
	// rate-to-rate ordering differs from the paper at high rates — see
	// EXPERIMENTS.md — so this asserts the invariant that does hold.)
	r := NewRunner()
	r.QuickDivisor = 4
	base := RunConfig{Bench: "pmd", HeapMult: 2, Collector: vm.StickyImmix, Seed: 1}
	for _, f := range []float64{0.10, 0.25, 0.50} {
		rc := base
		rc.FailureAware = true
		rc.FailureRate = f
		rc.ClusterPages = 2
		n := r.Normalized(rc, base)
		if n < 1.01 {
			t.Errorf("f=%v normalized %v, want > 1.01", f, n)
		}
	}
}

func TestClusteringReducesOverhead(t *testing.T) {
	r := NewRunner()
	r.QuickDivisor = 4
	base := RunConfig{Bench: "pmd", HeapMult: 2, Collector: vm.StickyImmix, Seed: 1}
	mk := func(cluster int) float64 {
		rc := base
		rc.FailureAware = true
		rc.FailureRate = 0.25
		rc.ClusterPages = cluster
		return r.Normalized(rc, base)
	}
	none, two := mk(0), mk(2)
	if none == 0 {
		t.Skip("unclustered 25% DNFs at this heap (paper-consistent)")
	}
	if two >= none {
		t.Fatalf("2-page clustering should reduce overhead: none=%v 2CL=%v", none, two)
	}
}

// The registry is the one place an experiment is declared: ids are unique
// across All() and Extras(), every row is complete, and Run stamps the
// report with the row's id (checked on the ids whose quick run is under a
// second).
func TestExperimentRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range append(All(), Extras()...) {
		if ids[e.ID] {
			t.Fatalf("duplicate experiment %s", e.ID)
		}
		ids[e.ID] = true
		if e.body == nil || e.Title == "" || e.Section == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
		if got := ByID(e.ID); got == nil || got.Title != e.Title {
			t.Fatalf("ByID(%q) = %v", e.ID, got)
		}
	}
	for _, want := range []string{"fig3", "fig4", "fig5", "fig6a", "fig6b",
		"fig7", "fig8", "fig9a", "fig9b", "fig10", "tab1", "tab2", "tab3", "tab4",
		"tab5", "tab6", "mutscale", "corescale", "kvlat", "pausecurve", "restart", "policyzoo"} {
		if !ids[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
	if len(ids) != 22 || len(All()) != 16 {
		t.Fatalf("%d experiments, %d of them in All(): an experiment was added or dropped", len(ids), len(All()))
	}
	if ByID("zzz") != nil {
		t.Fatal("ByID found an experiment nobody registered")
	}
	for _, id := range []string{"tab3", "tab4", "fig3"} {
		if rep := ByID(id).Run(quickOpts()); rep.ID != id {
			t.Errorf("ByID(%q).Run returned a report stamped %q", id, rep.ID)
		}
	}
}

func checkReport(t *testing.T, rep *Report) {
	t.Helper()
	if rep.ID == "" || len(rep.Tables) == 0 {
		t.Fatalf("report %q malformed", rep.ID)
	}
	for _, tab := range rep.Tables {
		if len(tab.Rows) == 0 || len(tab.Columns) == 0 {
			t.Fatalf("%s: empty table %q", rep.ID, tab.Title)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Columns) {
				t.Fatalf("%s: row width %d != %d columns", rep.ID, len(row), len(tab.Columns))
			}
		}
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !bytes.Contains(buf.Bytes(), []byte(rep.ID)) {
		t.Fatalf("%s: render missing id", rep.ID)
	}
}

// The cheap experiments run fully even in tests.
func TestMetadataAndBufferExperiments(t *testing.T) {
	for _, id := range []string{"tab3", "tab4"} {
		rep := ByID(id).Run(quickOpts())
		checkReport(t, rep)
	}
}

func TestTab3ClusteringCompressesBetter(t *testing.T) {
	rep := ByID("tab3").Run(quickOpts())
	tab := rep.Tables[0]
	// At 25% failures the clustered RLE must beat the uniform RLE.
	for _, row := range tab.Rows {
		if row[0].Text != "25%" {
			continue
		}
		uni, cl := row[2].Num, row[3].Num
		if cl >= uni {
			t.Fatalf("clustered RLE %v >= uniform %v", cl, uni)
		}
		return
	}
	t.Fatal("25% row missing")
}

func TestTab4LargerBuffersStallLess(t *testing.T) {
	s8, _ := failureBurst(8)
	s128, _ := failureBurst(128)
	if s128 >= s8 && s8 != 0 {
		t.Fatalf("larger buffer should stall less: cap8=%d cap128=%d", s8, s128)
	}
	if s128 != 0 {
		t.Fatalf("128-entry buffer should absorb a 64-failure burst, got %d stalls", s128)
	}
}

func TestQuickExperimentsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments still run many configurations")
	}
	for _, id := range []string{"fig4", "tab1"} {
		rep := ByID(id).Run(quickOpts())
		checkReport(t, rep)
	}
}

func TestTableCSV(t *testing.T) {
	tab := Table{Columns: []string{"a", "b"}, Rows: [][]Cell{{Int(1), Int(2)}}}
	var buf bytes.Buffer
	tab.CSV(&buf)
	if buf.String() != "a,b\n1,2\n" {
		t.Fatalf("CSV = %q", buf.String())
	}
}

func TestUnknownBenchmarkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown benchmark")
		}
	}()
	NewRunner().Run(RunConfig{Bench: "nope"})
}

// TestKVClimbsTheWholeLadder: a default kv allocation that needs a wholly
// free block climbs the whole collection ladder on a stop-the-world runtime
// too. At these seeds one defragmenting collection was not enough, and the
// runs ended out of memory when only marking configurations got the
// retries.
func TestKVClimbsTheWholeLadder(t *testing.T) {
	for _, seed := range []int64{1, 4, 8} {
		res := execute(RunConfig{
			Bench: "kv", HeapMult: 2, Collector: vm.StickyImmix, FailureAware: true,
			FailureRate: 0.10, ClusterPages: 2, Mutators: 4, Iterations: 2000, Seed: seed,
		}, new(drawnMaps))
		if res.DNF {
			t.Errorf("seed %d: kv did not finish (%s)", seed, res.Panic)
		}
	}
}
