package workload

import (
	"math/rand"
	"reflect"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/kernel"
	"wearmem/internal/stats"
	"wearmem/internal/vm"
)

func buildVM(t *testing.T, heapBytes int, rate float64, cluster, traceWorkers int) (*vm.VM, error) {
	t.Helper()
	clock := stats.NewClock(stats.DefaultCosts())
	poolPages := 8 * heapBytes / failmap.PageSize
	var inject *failmap.Map
	if rate > 0 {
		inject = failmap.New(poolPages * failmap.PageSize)
		failmap.GenerateUniform(inject, rate, rand.New(rand.NewSource(99)))
		if cluster > 0 {
			inject = failmap.ClusterHardware(inject, cluster)
		}
	}
	kern := kernel.New(kernel.Config{PCMPages: poolPages, Inject: inject, Clock: clock})
	v := vm.New(vm.Config{
		HeapBytes:    heapBytes,
		Compensate:   rate > 0,
		Collector:    vm.StickyImmix,
		FailureAware: true,
		Kernel:       kern,
		Clock:        clock,
		TraceWorkers: traceWorkers,
	})
	return v, nil
}

func runProfile(t *testing.T, p *Profile, heapBytes int, rate float64, cluster int, iters int) (*vm.VM, error) {
	t.Helper()
	v, err := buildVM(t, heapBytes, rate, cluster, 0)
	if err != nil {
		t.Fatal(err)
	}
	return v, p.RunMutators(v, iters, 1)
}

func TestProfilesValidate(t *testing.T) {
	for _, p := range SuiteWithBuggyLusearch() {
		if err := p.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestSuiteNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range SuiteWithBuggyLusearch() {
		if seen[p.Name] {
			t.Fatalf("duplicate benchmark %q", p.Name)
		}
		seen[p.Name] = true
	}
	if len(Suite()) != 12 {
		t.Fatalf("suite has %d benchmarks, want 12", len(Suite()))
	}
	if ByName("pmd") == nil || ByName("nope") != nil {
		t.Fatal("ByName lookup broken")
	}
}

// ByName's table names each suite member by the name its constructor
// gives it, and no other profile.
func TestByNameTableMatchesSuite(t *testing.T) {
	suite := SuiteWithBuggyLusearch()
	if len(builtins) != len(suite) {
		t.Fatalf("ByName knows %d built-in profiles, the suite has %d", len(builtins), len(suite))
	}
	for _, p := range suite {
		got := ByName(p.Name)
		if got == nil || !reflect.DeepEqual(got, p) {
			t.Errorf("ByName(%q) = %+v, want the suite's %+v", p.Name, got, p)
		}
		if got == ByName(p.Name) {
			t.Errorf("ByName(%q) returned one instance twice", p.Name)
		}
	}
}

// Every benchmark must complete at its declared minimum heap — that is
// what "minimum heap" means for the paper's heap-size axes.
func TestBenchmarksCompleteAtMinHeap(t *testing.T) {
	for _, p := range Suite() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			if _, err := runProfile(t, p, p.MinHeap(), 0, 0, 0); err != nil {
				t.Fatalf("%s DNF at min heap %d: %v", p.Name, p.MinHeap(), err)
			}
		})
	}
}

// At 2x min heap with 50% two-page-clustered failures — the paper's most
// stressed reported configuration — every benchmark must still complete.
func TestBenchmarksCompleteUnderClusteredFailures(t *testing.T) {
	for _, p := range Suite() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			if _, err := runProfile(t, p, 2*p.MinHeap(), 0.5, 2, 0); err != nil {
				t.Fatalf("%s DNF at 2x heap, 50%% clustered failures: %v", p.Name, err)
			}
		})
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	p := Pmd()
	v1, err1 := runProfile(t, p, 2*p.MinHeap(), 0.25, 2, 60)
	v2, err2 := runProfile(t, p, 2*p.MinHeap(), 0.25, 2, 60)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if v1.Clock().Now() != v2.Clock().Now() {
		t.Fatalf("identical runs diverge: %d vs %d cycles", v1.Clock().Now(), v2.Clock().Now())
	}
	if v1.GCStats().Collections != v2.GCStats().Collections {
		t.Fatal("GC counts diverge between identical runs")
	}
}

func TestWorkloadsTriggerCollections(t *testing.T) {
	p := Sunflow()
	v, err := runProfile(t, p, 2*p.MinHeap(), 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.GCStats().Collections < 3 {
		t.Fatalf("only %d collections; churn too small to exercise the collector",
			v.GCStats().Collections)
	}
}

func TestXalanUsesLOSHeavily(t *testing.T) {
	px, pl := Xalan(), Luindex()
	vx, err := runProfile(t, px, 2*px.MinHeap(), 0, 0, 80)
	if err != nil {
		t.Fatal(err)
	}
	vl, err := runProfile(t, pl, 2*pl.MinHeap(), 0, 0, 80)
	if err != nil {
		t.Fatal(err)
	}
	xl := vx.Clock().Count(stats.EvLOSAlloc)
	ll := vl.Clock().Count(stats.EvLOSAlloc)
	if xl <= 3*ll {
		t.Fatalf("xalan LOS allocs (%d) should dwarf luindex's (%d)", xl, ll)
	}
}

func TestBuggyLusearchAllocatesMore(t *testing.T) {
	buggy, fixed := Lusearch(), LusearchFix()
	vb, err := runProfile(t, buggy, 3*buggy.MinHeap(), 0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	vf, err := runProfile(t, fixed, 3*fixed.MinHeap(), 0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	ab := vb.Clock().Count(stats.EvAllocBytes)
	af := vf.Clock().Count(stats.EvAllocBytes)
	if float64(ab) < 2.5*float64(af) {
		t.Fatalf("buggy lusearch allocation rate %d not ~3x fixed %d", ab, af)
	}
}

func TestMinHeapAnalytic(t *testing.T) {
	for _, p := range Suite() {
		if p.MinHeap() < p.LiveBytes() {
			t.Errorf("%s: min heap %d below live bytes %d", p.Name, p.MinHeap(), p.LiveBytes())
		}
		if p.MinHeap()%(32<<10) != 0 {
			t.Errorf("%s: min heap not block-aligned", p.Name)
		}
	}
}
