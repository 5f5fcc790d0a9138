// Package workload provides the synthetic mutator programs standing in for
// the DaCapo benchmarks of the paper's evaluation (§5).
//
// We cannot run Java, so each benchmark is a deterministic mutator with a
// distinct allocation-size distribution, live-set shape, survival profile
// and pointer-mutation behaviour, calibrated to the role the paper assigns
// it: pmd and jython are medium-object heavy (hit hardest by
// fragmentation), xalan predominantly allocates large arrays (leaning on
// perfect pages), hsqldb carries the largest live set (worst full-heap
// collection cost), lusearch exists in a buggy variant that needlessly
// allocates a large array in its hot loop and a patched lusearch-fix
// (§5, [24]). The mutators exercise the identical allocator and collector
// code paths the paper measures: bump allocation, overflow allocation for
// medium objects, the large object space, barriers, and evacuation.
package workload

import (
	"fmt"
	"math/rand"

	"wearmem/internal/failmap"
	"wearmem/internal/heap"
	"wearmem/internal/stats"
	"wearmem/internal/vm"
)

// Profile declares a benchmark's behaviour. All sizes are in bytes.
type Profile struct {
	Name string

	// Long-lived state built during setup.
	LiveListNodes  int // linked-list nodes (2 refs + payload each)
	LiveArrayBytes int // rooted byte arrays
	RegistrySlots  int // rooted reference-array registry of survivors

	// Per-iteration behaviour.
	ChurnPerIter int     // bytes of fresh allocation per iteration
	SmallFrac    float64 // fraction of churn quanta that are small
	MediumFrac   float64 // ... medium (the rest is large / LOS)
	SmallSize    [2]int  // [min,max) small object payload
	MediumSize   [2]int
	LargeSize    [2]int
	SurviveEvery int // every n-th churn object is installed in the registry
	MutatePerIt  int // pointer mutations per iteration
	TraverseLen  int // list nodes visited per iteration
	WorkPerIt    int // abstract compute units per iteration

	// HotLoopLargeAlloc reproduces the lusearch allocation bug [24]: a
	// needless large array allocated every iteration.
	HotLoopLargeAlloc int

	// Iterations for a standard run.
	Iterations int

	// IterHook, when set, runs after every iteration (the harness uses it
	// to inject dynamic failures mid-run). It is not part of the
	// benchmark's definition and is excluded from validation.
	IterHook func(iteration int, v *vm.VM)

	// Prepare, when set, runs once on the VM before any mutator body
	// starts: scenario profiles register their object types and build
	// shared rooted structures here. The standard churn engine leaves it
	// nil.
	Prepare func(v *vm.VM) error

	// Body, when set, replaces the standard setup/iterate churn engine:
	// the profile is a scenario (e.g. the KV server) whose behaviour is
	// this function, run once per mutator with the mutator's API, its
	// index and the mutator count, its iteration share, and a yield
	// callback the body must invoke once per iteration (the engines park
	// at safepoints and fire IterHook there). Scenario profiles still
	// declare Iterations and MinHeapBytes; the churn-mix fields are
	// unused.
	Body func(api MutAPI, mut, mutators, iterations int, yield func()) error

	// Latency, when set by the harness, returns mutator i's latency
	// shard; scenario bodies record per-operation latency into it. Nil
	// disables capture. Like IterHook it is run state, not part of the
	// benchmark's definition.
	Latency func(mut int) *stats.LatencyShard

	// MinHeapBytes is the benchmark's calibrated minimum heap (the unit of
	// the paper's heap-size axes), found by binary search with
	// `wearbench -calibrate` and declared with ~15% headroom. When zero,
	// an analytic estimate scaled by MinHeapFactor is used instead.
	MinHeapBytes int
	// MinHeapFactor scales the analytic live-set estimate when no
	// calibrated minimum is declared.
	MinHeapFactor float64
}

const (
	nodeSize = 40
	nodeNext = 8
	nodeAlt  = 16
	nodeVal  = 24
)

// LiveBytes estimates the benchmark's steady live set.
func (p *Profile) LiveBytes() int {
	bytes := p.LiveListNodes * nodeSize
	bytes += p.LiveArrayBytes
	// Registry array plus the survivors it retains: slots only fill as
	// churn objects survive, so a short run may never populate them all.
	filled := p.RegistrySlots
	if p.SurviveEvery > 0 && p.avgObjectSize() > 0 {
		quanta := p.Iterations * p.ChurnPerIter / p.avgObjectSize()
		if s := quanta / p.SurviveEvery; s < filled {
			filled = s
		}
	}
	bytes += p.RegistrySlots*heap.WordSize + filled*p.avgObjectSize()
	return bytes
}

func (p *Profile) avgObjectSize() int {
	s := float64(p.SmallSize[0]+p.SmallSize[1]) / 2 * p.SmallFrac
	s += float64(p.MediumSize[0]+p.MediumSize[1]) / 2 * p.MediumFrac
	s += float64(p.LargeSize[0]+p.LargeSize[1]) / 2 * (1 - p.SmallFrac - p.MediumFrac)
	return int(s)
}

// MinHeap returns the benchmark's minimum heap, the unit of the paper's
// heap-size axes: the calibrated MinHeapBytes when declared, otherwise an
// analytic estimate.
func (p *Profile) MinHeap() int {
	min := p.MinHeapBytes
	if min == 0 {
		f := p.MinHeapFactor
		if f == 0 {
			f = 2.0
		}
		min = int(float64(p.LiveBytes()) * f)
	}
	// Round up to a whole number of 32 KB blocks.
	const block = 32 << 10
	min = (min + block - 1) / block * block
	if min < 4*block {
		min = 4 * block
	}
	return min
}

// Types registers the benchmark object types on a VM.
type Types struct {
	Node  *heap.Type
	Bytes *heap.Type
	Refs  *heap.Type
}

// RegisterTypes installs the workload types on a fresh VM.
func RegisterTypes(v *vm.VM) *Types {
	return &Types{
		Node: v.RegisterType(&heap.Type{
			Name: "wl.node", Kind: heap.KindFixed, Size: nodeSize,
			RefOffsets: []int{nodeNext, nodeAlt},
		}),
		Bytes: v.RegisterType(&heap.Type{Name: "wl.bytes", Kind: heap.KindScalarArray, ElemSize: 1}),
		Refs:  v.RegisterType(&heap.Type{Name: "wl.refs", Kind: heap.KindRefArray}),
	}
}

// MutAPI is the runtime surface a run drives: one vm.Mutator, whose
// allocations go through its private Immix context and whose accessors
// charge its clock — an alias of the shared clock on the baton engine, a
// private shard on the threaded one. *vm.VM satisfies it too (the torture
// workload's serial campaign drives the VM's plain entry points); scenario
// bodies receive a *vm.Mutator and may type-assert for its clock and GC
// telemetry.
type MutAPI interface {
	New(ty *heap.Type) (heap.Addr, error)
	NewArray(ty *heap.Type, n int) (heap.Addr, error)
	ReadRef(obj heap.Addr, off int) heap.Addr
	WriteRef(obj heap.Addr, off int, val heap.Addr)
	ReadWord(obj heap.Addr, off int) uint64
	WriteWord(obj heap.Addr, off int, val uint64)
	ArrayRef(arr heap.Addr, i int) heap.Addr
	SetArrayRef(arr heap.Addr, i int, val heap.Addr)
	ArrayByte(arr heap.Addr, i int) byte
	SetArrayByte(arr heap.Addr, i int, b byte)
	ArrayLen(arr heap.Addr) int
	AddRoot(slot *heap.Addr)
	RemoveRoot(slot *heap.Addr)
	Work(n int)
}

// runState is one mutator's slice of a benchmark run: its long-lived
// structures, its deterministic rng stream, and its churn counter.
type runState struct {
	head       heap.Addr
	liveArrays []heap.Addr
	registry   heap.Addr
	churn      int
	rng        *rand.Rand
}

// setup builds the long-lived structures: the linked list, the rooted live
// arrays and the survivor registry, or the share of them one mutator of a
// RunMutators batch owns.
func (p *Profile) setup(api MutAPI, ty *Types, st *runState, listNodes, arrayBytes, regSlots int) error {
	api.AddRoot(&st.head)
	for i := 0; i < listNodes; i++ {
		a, err := api.New(ty.Node)
		if err != nil {
			return err
		}
		api.WriteWord(a, nodeVal, uint64(i))
		api.WriteRef(a, nodeNext, st.head)
		st.head = a
	}
	// Live arrays are rooted as they are created: a collection triggered by
	// a later allocation may move earlier ones. The slice is preallocated
	// so the registered slot pointers stay valid.
	st.liveArrays = make([]heap.Addr, 0, (arrayBytes+(4<<10)-1)/(4<<10))
	remaining := arrayBytes
	for remaining > 0 {
		n := 4 << 10
		if n > remaining {
			n = remaining
		}
		a, err := api.NewArray(ty.Bytes, n)
		if err != nil {
			return err
		}
		st.liveArrays = append(st.liveArrays, a)
		api.AddRoot(&st.liveArrays[len(st.liveArrays)-1])
		remaining -= n
	}
	api.AddRoot(&st.registry)
	if regSlots > 0 {
		a, err := api.NewArray(ty.Refs, regSlots)
		if err != nil {
			return err
		}
		st.registry = a
	}
	return nil
}

// iterate runs one benchmark iteration against the mutator's state. head
// and registry live in rooted slots: any allocation below may trigger a
// moving collection, so they are re-read through st at every use.
func (p *Profile) iterate(api MutAPI, ty *Types, st *runState) error {
	rng := st.rng
	// Churn allocation.
	allocated := 0
	for allocated < p.ChurnPerIter {
		size, kind := p.pickSize(rng)
		var obj heap.Addr
		var err error
		switch kind {
		case 0: // node-bearing small object
			obj, err = api.New(ty.Node)
			size = nodeSize
		default:
			obj, err = api.NewArray(ty.Bytes, size)
		}
		if err != nil {
			return err
		}
		allocated += size
		st.churn++
		if st.registry != 0 && p.SurviveEvery > 0 && st.churn%p.SurviveEvery == 0 {
			slot := rng.Intn(api.ArrayLen(st.registry))
			api.SetArrayRef(st.registry, slot, obj) // old survivor dies here
		}
	}
	// The lusearch hot-loop bug: a needless large allocation per iteration.
	if p.HotLoopLargeAlloc > 0 {
		if _, err := api.NewArray(ty.Bytes, p.HotLoopLargeAlloc); err != nil {
			return err
		}
	}
	// Pointer mutations over the live list (exercises the barrier). The
	// cursor is rooted: each New below is a GC point that may move the
	// node it refers to.
	a := st.head
	api.AddRoot(&a)
	for m := 0; m < p.MutatePerIt && a != 0; m++ {
		fresh, err := api.New(ty.Node)
		if err != nil {
			api.RemoveRoot(&a)
			return err
		}
		api.WriteWord(fresh, nodeVal, rng.Uint64()>>32)
		api.WriteRef(a, nodeAlt, fresh) // old -> young edge
		a = api.ReadRef(a, nodeNext)
	}
	api.RemoveRoot(&a)
	// Traversal (read locality; no GC points).
	a = st.head
	sum := uint64(0)
	for i := 0; i < p.TraverseLen && a != 0; i++ {
		sum += api.ReadWord(a, nodeVal)
		a = api.ReadRef(a, nodeNext)
	}
	_ = sum
	api.Work(p.WorkPerIt)
	return nil
}

// pickSize draws an allocation size from the benchmark's mix. kind 0 means
// a node object, 1 a byte array.
func (p *Profile) pickSize(rng *rand.Rand) (size, kind int) {
	r := rng.Float64()
	switch {
	case r < p.SmallFrac:
		if rng.Intn(2) == 0 {
			return nodeSize, 0
		}
		return uniform(rng, p.SmallSize), 1
	case r < p.SmallFrac+p.MediumFrac:
		return uniform(rng, p.MediumSize), 1
	default:
		return uniform(rng, p.LargeSize), 1
	}
}

func uniform(rng *rand.Rand, bounds [2]int) int {
	if bounds[1] <= bounds[0] {
		return bounds[0]
	}
	return bounds[0] + rng.Intn(bounds[1]-bounds[0])
}

// Validate sanity-checks a profile.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile without name")
	}
	if p.Body != nil {
		// Scenario profiles define their own behaviour; the churn-mix
		// fields are unused, but the harness still needs a heap unit and
		// an iteration count.
		if p.Iterations <= 0 {
			return fmt.Errorf("workload %s: scenario needs iterations", p.Name)
		}
		if p.MinHeapBytes <= 0 {
			return fmt.Errorf("workload %s: scenario needs a calibrated MinHeapBytes", p.Name)
		}
		return nil
	}
	if p.SmallFrac < 0 || p.MediumFrac < 0 || p.SmallFrac+p.MediumFrac > 1 {
		return fmt.Errorf("workload %s: bad size mix", p.Name)
	}
	if p.ChurnPerIter <= 0 || p.Iterations <= 0 {
		return fmt.Errorf("workload %s: needs churn and iterations", p.Name)
	}
	if p.MinHeap() < 4*failmap.PageSize {
		return fmt.Errorf("workload %s: implausible min heap", p.Name)
	}
	return nil
}
