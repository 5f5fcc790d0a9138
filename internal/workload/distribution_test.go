package workload

import (
	"math"
	"testing"

	"wearmem/internal/seeded"
	"wearmem/internal/vm"
)

// The size mix drawn by pickSize must respect each profile's declared
// fractions and ranges — the properties the evaluation's narrative assigns
// to individual benchmarks (pmd medium-heavy, xalan large-heavy, ...).
func TestPickSizeDistribution(t *testing.T) {
	for _, p := range Suite() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			rng := seeded.New(42)
			const draws = 20000
			var small, medium, large int
			for i := 0; i < draws; i++ {
				size, kind := p.pickSize(rng)
				switch {
				case kind == 0:
					if size != nodeSize {
						t.Fatalf("node draw size %d", size)
					}
					small++
				case size >= p.LargeSize[0]:
					large++
				case size >= p.MediumSize[0]:
					medium++
				default:
					small++
				}
			}
			tol := 0.02
			if got := float64(small) / draws; math.Abs(got-p.SmallFrac) > tol {
				t.Errorf("small fraction %.3f, want %.3f", got, p.SmallFrac)
			}
			if got := float64(medium) / draws; math.Abs(got-p.MediumFrac) > tol {
				t.Errorf("medium fraction %.3f, want %.3f", got, p.MediumFrac)
			}
			wantLarge := 1 - p.SmallFrac - p.MediumFrac
			if got := float64(large) / draws; math.Abs(got-wantLarge) > tol {
				t.Errorf("large fraction %.3f, want %.3f", got, wantLarge)
			}
		})
	}
}

func TestPickSizeRanges(t *testing.T) {
	p := Pmd()
	rng := seeded.New(7)
	for i := 0; i < 5000; i++ {
		size, kind := p.pickSize(rng)
		if kind == 0 {
			continue
		}
		inSmall := size >= p.SmallSize[0] && size < p.SmallSize[1]
		inMedium := size >= p.MediumSize[0] && size < p.MediumSize[1]
		inLarge := size >= p.LargeSize[0] && size < p.LargeSize[1]
		if !inSmall && !inMedium && !inLarge {
			t.Fatalf("draw %d outside every declared range", size)
		}
	}
}

// Every benchmark's roles from the paper's narrative, as testable facts.
func TestBenchmarkRoles(t *testing.T) {
	byName := map[string]*Profile{}
	for _, p := range Suite() {
		byName[p.Name] = p
	}
	// pmd and jython are the most medium-heavy benchmarks.
	for _, p := range Suite() {
		if p.Name == "pmd" || p.Name == "jython" {
			continue
		}
		if p.MediumFrac >= byName["pmd"].MediumFrac {
			t.Errorf("%s medium fraction %.2f >= pmd's", p.Name, p.MediumFrac)
		}
	}
	// xalan allocates the largest share of large objects.
	for _, p := range Suite() {
		if p.Name == "xalan" {
			continue
		}
		if lf := 1 - p.SmallFrac - p.MediumFrac; lf >= 1-byName["xalan"].SmallFrac-byName["xalan"].MediumFrac {
			t.Errorf("%s large fraction >= xalan's", p.Name)
		}
	}
	// hsqldb has the largest live set.
	for _, p := range Suite() {
		if p.Name == "hsqldb" {
			continue
		}
		if p.LiveBytes() >= byName["hsqldb"].LiveBytes() {
			t.Errorf("%s live bytes %d >= hsqldb's %d", p.Name, p.LiveBytes(), byName["hsqldb"].LiveBytes())
		}
	}
	// The buggy lusearch allocates ~3x the fixed variant per iteration.
	buggy, fixed := Lusearch(), LusearchFix()
	ratio := float64(buggy.ChurnPerIter+buggy.HotLoopLargeAlloc) / float64(fixed.ChurnPerIter)
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("buggy lusearch allocation ratio %.2f, want ~3", ratio)
	}
}

func TestIterHookRuns(t *testing.T) {
	p := Sunflow()
	count := 0
	p.IterHook = func(it int, v *vm.VM) {
		if v == nil {
			t.Fatal("hook got nil VM")
		}
		count++
	}
	if _, err := runProfile(t, p, 2*p.MinHeap(), 0, 0, 25); err != nil {
		t.Fatal(err)
	}
	if count != 25 {
		t.Fatalf("hook ran %d times, want 25", count)
	}
}
