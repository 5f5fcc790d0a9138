package workload

// The benchmark suite: the superset of DaCapo programs the paper runs on
// Jikes RVM (§5), reproduced as synthetic profiles. Heap sizes here are
// scaled down from the Java originals (the cost model makes results
// scale-free); what matters is each benchmark's *shape*:
//
//   - pmd, jython     — many medium objects; hardest hit by fragmentation
//     (Fig. 4: pmd worst at 40% overhead under 50% failures).
//   - xalan           — predominantly very large objects; resilient under
//     two-page clustering, heavy perfect-page demand (Fig. 9(b)).
//   - hsqldb          — largest live set; worst full-heap collection cost
//     (§4.2: 44 ms worst case).
//   - fop             — medium-heavy tree builder, second-worst collection
//     cost.
//   - lusearch        — the buggy variant allocating a large array in a hot
//     loop [24], tripling the allocation rate; excluded from aggregate
//     analysis like the paper does.
//   - lusearch-fix    — the patched variant.
//   - the rest        — small-object mutators of varying rates.

// Suite returns the full benchmark suite in the paper's usual order.
func Suite() []*Profile {
	return []*Profile{
		Avrora(), Bloat(), Chart(), Eclipse(), Fop(), Hsqldb(),
		Jython(), Luindex(), LusearchFix(), Pmd(), Sunflow(), Xalan(),
	}
}

// SuiteWithBuggyLusearch additionally includes the buggy lusearch, which
// Fig. 4 reports but every aggregate excludes.
func SuiteWithBuggyLusearch() []*Profile {
	return append(Suite(), Lusearch())
}

// builtins maps each member of SuiteWithBuggyLusearch to its constructor.
var builtins = map[string]func() *Profile{
	"avrora": Avrora, "bloat": Bloat, "chart": Chart, "eclipse": Eclipse,
	"fop": Fop, "hsqldb": Hsqldb, "jython": Jython, "luindex": Luindex,
	"lusearch": Lusearch, "lusearch-fix": LusearchFix, "pmd": Pmd,
	"sunflow": Sunflow, "xalan": Xalan,
}

// ByName returns the named benchmark — a built-in suite member or a
// registered extra (scenario) profile — or nil. Every call constructs a
// fresh instance of that one profile: run state (IterHook, Latency) is
// mutated per execution.
func ByName(name string) *Profile {
	if mk := builtins[name]; mk != nil {
		return mk()
	}
	return byExtraName(name)
}

// Avrora models a low-allocation-rate event simulator.
func Avrora() *Profile {
	return &Profile{
		Name:          "avrora",
		LiveListNodes: 1200,
		RegistrySlots: 256,
		ChurnPerIter:  6 << 10,
		SmallFrac:     0.92, MediumFrac: 0.07,
		SmallSize: [2]int{16, 64}, MediumSize: [2]int{256, 512}, LargeSize: [2]int{9 << 10, 12 << 10},
		SurviveEvery: 40, MutatePerIt: 4, TraverseLen: 64, WorkPerIt: 600,
		Iterations: 1600, MinHeapBytes: 425984, MinHeapFactor: 2.2,
	}
}

// Bloat models a bytecode optimizer: small object churn over an AST.
func Bloat() *Profile {
	return &Profile{
		Name:          "bloat",
		LiveListNodes: 2000,
		RegistrySlots: 512,
		ChurnPerIter:  12 << 10,
		SmallFrac:     0.85, MediumFrac: 0.13,
		SmallSize: [2]int{16, 64}, MediumSize: [2]int{256, 1024}, LargeSize: [2]int{9 << 10, 16 << 10},
		SurviveEvery: 30, MutatePerIt: 6, TraverseLen: 96, WorkPerIt: 400,
		Iterations: 1200, MinHeapBytes: 688128, MinHeapFactor: 2.1,
	}
}

// Chart models report rendering: medium arrays for drawing primitives.
func Chart() *Profile {
	return &Profile{
		Name:           "chart",
		LiveListNodes:  1500,
		LiveArrayBytes: 96 << 10,
		RegistrySlots:  384,
		ChurnPerIter:   16 << 10,
		SmallFrac:      0.55, MediumFrac: 0.40,
		SmallSize: [2]int{16, 64}, MediumSize: [2]int{512, 2 << 10}, LargeSize: [2]int{9 << 10, 20 << 10},
		SurviveEvery: 36, MutatePerIt: 4, TraverseLen: 48, WorkPerIt: 500,
		Iterations: 2750, MinHeapBytes: 1343488, MinHeapFactor: 2.0,
	}
}

// Eclipse models an IDE workload: a large mixed live set with heavy churn.
func Eclipse() *Profile {
	return &Profile{
		Name:           "eclipse",
		LiveListNodes:  4000,
		LiveArrayBytes: 192 << 10,
		RegistrySlots:  1024,
		ChurnPerIter:   18 << 10,
		SmallFrac:      0.78, MediumFrac: 0.18,
		SmallSize: [2]int{16, 64}, MediumSize: [2]int{256, 2 << 10}, LargeSize: [2]int{9 << 10, 24 << 10},
		SurviveEvery: 24, MutatePerIt: 8, TraverseLen: 128, WorkPerIt: 700,
		Iterations: 1950, MinHeapBytes: 1867776, MinHeapFactor: 1.9,
	}
}

// Fop models XSL-FO formatting: a medium-object tree builder.
func Fop() *Profile {
	return &Profile{
		Name:          "fop",
		LiveListNodes: 2600,
		RegistrySlots: 768,
		ChurnPerIter:  14 << 10,
		SmallFrac:     0.48, MediumFrac: 0.48,
		SmallSize: [2]int{16, 64}, MediumSize: [2]int{384, 1536}, LargeSize: [2]int{9 << 10, 14 << 10},
		SurviveEvery: 22, MutatePerIt: 6, TraverseLen: 96, WorkPerIt: 450,
		Iterations: 2280, MinHeapBytes: 1409024, MinHeapFactor: 2.0,
	}
}

// Hsqldb models an in-memory database: the largest live set in the suite.
func Hsqldb() *Profile {
	return &Profile{
		Name:           "hsqldb",
		LiveListNodes:  9000,
		LiveArrayBytes: 256 << 10,
		RegistrySlots:  2048,
		ChurnPerIter:   10 << 10,
		SmallFrac:      0.80, MediumFrac: 0.18,
		SmallSize: [2]int{16, 64}, MediumSize: [2]int{256, 1 << 10}, LargeSize: [2]int{9 << 10, 12 << 10},
		SurviveEvery: 16, MutatePerIt: 10, TraverseLen: 192, WorkPerIt: 500,
		Iterations: 3600, MinHeapBytes: 2064384, MinHeapFactor: 1.8,
	}
}

// Jython models a Python interpreter: frames and dictionaries of medium
// size, the second-most fragmentation-sensitive benchmark.
func Jython() *Profile {
	return &Profile{
		Name:          "jython",
		LiveListNodes: 2200,
		RegistrySlots: 640,
		ChurnPerIter:  16 << 10,
		SmallFrac:     0.42, MediumFrac: 0.55,
		SmallSize: [2]int{16, 64}, MediumSize: [2]int{512, 2560}, LargeSize: [2]int{9 << 10, 12 << 10},
		SurviveEvery: 28, MutatePerIt: 6, TraverseLen: 80, WorkPerIt: 420,
		Iterations: 3450, MinHeapBytes: 1474560, MinHeapFactor: 2.0,
	}
}

// Luindex models document indexing: token-sized small objects.
func Luindex() *Profile {
	return &Profile{
		Name:           "luindex",
		LiveListNodes:  900,
		LiveArrayBytes: 64 << 10,
		RegistrySlots:  192,
		ChurnPerIter:   8 << 10,
		SmallFrac:      0.90, MediumFrac: 0.094,
		SmallSize: [2]int{16, 64}, MediumSize: [2]int{256, 768}, LargeSize: [2]int{9 << 10, 12 << 10},
		SurviveEvery: 48, MutatePerIt: 3, TraverseLen: 40, WorkPerIt: 520,
		Iterations: 1300, MinHeapBytes: 458752, MinHeapFactor: 2.3,
	}
}

// Lusearch is the buggy variant: a pathological large allocation in the
// hot loop triples the allocation rate [24].
func Lusearch() *Profile {
	p := LusearchFix()
	p.Name = "lusearch"
	p.HotLoopLargeAlloc = 24 << 10 // the needless hot-loop array
	p.MinHeapBytes = 393216        // transient hot-loop arrays need room
	return p
}

// LusearchFix is the patched text-search benchmark.
func LusearchFix() *Profile {
	return &Profile{
		Name:          "lusearch-fix",
		LiveListNodes: 800,
		RegistrySlots: 160,
		ChurnPerIter:  12 << 10,
		SmallFrac:     0.88, MediumFrac: 0.10,
		SmallSize: [2]int{16, 64}, MediumSize: [2]int{256, 1 << 10}, LargeSize: [2]int{9 << 10, 12 << 10},
		SurviveEvery: 56, MutatePerIt: 3, TraverseLen: 32, WorkPerIt: 380,
		Iterations: 730, MinHeapBytes: 425984, MinHeapFactor: 2.4,
	}
}

// Pmd models source-code analysis: AST nodes of medium size dominate,
// the paper's most fragmentation-sensitive benchmark.
func Pmd() *Profile {
	return &Profile{
		Name:          "pmd",
		LiveListNodes: 2400,
		RegistrySlots: 768,
		ChurnPerIter:  18 << 10,
		SmallFrac:     0.35, MediumFrac: 0.62,
		SmallSize: [2]int{16, 64}, MediumSize: [2]int{512, 2 << 10}, LargeSize: [2]int{9 << 10, 12 << 10},
		SurviveEvery: 24, MutatePerIt: 5, TraverseLen: 72, WorkPerIt: 400,
		Iterations: 4090, MinHeapBytes: 1736704, MinHeapFactor: 2.0,
	}
}

// Sunflow models a ray tracer: very high small-object allocation rate.
func Sunflow() *Profile {
	return &Profile{
		Name:          "sunflow",
		LiveListNodes: 1000,
		RegistrySlots: 256,
		ChurnPerIter:  20 << 10,
		SmallFrac:     0.94, MediumFrac: 0.05,
		SmallSize: [2]int{16, 64}, MediumSize: [2]int{256, 512}, LargeSize: [2]int{9 << 10, 12 << 10},
		SurviveEvery: 64, MutatePerIt: 3, TraverseLen: 32, WorkPerIt: 300,
		Iterations: 520, MinHeapBytes: 393216, MinHeapFactor: 2.2,
	}
}

// Xalan models XSLT transformation: predominantly very large objects,
// the paper's perfect-page-hungry benchmark.
func Xalan() *Profile {
	return &Profile{
		Name:           "xalan",
		LiveListNodes:  1200,
		LiveArrayBytes: 128 << 10,
		RegistrySlots:  256,
		ChurnPerIter:   32 << 10,
		SmallFrac:      0.40, MediumFrac: 0.15,
		SmallSize: [2]int{16, 64}, MediumSize: [2]int{512, 2 << 10}, LargeSize: [2]int{10 << 10, 40 << 10},
		SurviveEvery: 40, MutatePerIt: 4, TraverseLen: 48, WorkPerIt: 450,
		Iterations: 800, MinHeapBytes: 1572864, MinHeapFactor: 2.1,
	}
}
