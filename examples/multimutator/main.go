// Multi-mutator hole tolerance end to end: three mutators share one
// failure-aware heap on the deterministic baton scheduler — two allocate
// churn through their private Immix contexts, the third only reads a
// structure it built during setup. Mid-run the OS injects a dynamic line
// failure directly under the reader's data: the up-call and the evacuating
// collection are triggered by whichever mutator holds the baton, yet the
// reader — who never allocates and so never triggers a collection itself —
// finds every value intact (§4.2 on the PR 5 runtime).
package main

import (
	"fmt"

	"wearmem"
)

const (
	chainLen = 512
	rounds   = 4000
	nodeNext = 8
	nodeVal  = 16
)

func main() {
	rt := wearmem.MustOpen(
		wearmem.WithPoolPages(8192), // 32 MB
		wearmem.WithHeapBytes(2<<20),
		wearmem.WithMutators(3),
	)
	v, kern := rt.VM, rt.Kernel
	node := v.RegisterType(&wearmem.Type{
		Name: "node", Kind: wearmem.KindFixed, Size: 24, RefOffsets: []int{nodeNext},
	})
	blob := v.RegisterType(&wearmem.Type{Name: "blob", Kind: wearmem.KindScalarArray, ElemSize: 1})

	muts := rt.Mutators()
	reader, writers := muts[0], muts[1:]

	// The reader's long-lived chain, built before the churn starts.
	var head wearmem.Addr
	v.AddRoot(&head)
	reader.Unpark()
	for i := 0; i < chainLen; i++ {
		a := reader.MustNew(node)
		reader.WriteWord(a, nodeVal, uint64(i))
		reader.WriteRef(a, nodeNext, head)
		head = a
	}
	reader.Park()

	// Mid-run sabotage: after the writers have churned for a while, fail
	// the PCM line under one of the reader's nodes. The kernel marks the
	// line, up-calls the runtime, and the next collection evacuates every
	// object off it — all while the reader is parked at a safepoint.
	injected := false
	inject := func() {
		a := head
		for i := 0; i < chainLen/2; i++ {
			a = v.ReadRef(a, nodeNext)
		}
		r := kern.RegionAt(uint64(a))
		if r == nil {
			panic("reader chain not in a kernel region")
		}
		pageOff := int(uint64(a)-r.Base) / wearmem.PageSize
		lineOff := (int(uint64(a)-r.Base) % wearmem.PageSize) / wearmem.LineSize
		kern.InjectDynamicFailure(r, pageOff, lineOff)
		injected = true
		fmt.Printf("injected: line failure under reader node %d (vaddr %#x)\n", chainLen/2, uint64(a))
	}

	// The reader never allocates: it only walks its chain and checks the
	// values. Any collection it survives was triggered by someone else.
	walk := func(m *wearmem.Mutator, round int) error {
		a := head
		for i := chainLen - 1; i >= 0; i-- {
			if a == 0 {
				return fmt.Errorf("round %d: chain truncated at node %d", round, i)
			}
			if got := m.ReadWord(a, nodeVal); got != uint64(i) {
				return fmt.Errorf("round %d node %d: got %d", round, i, got)
			}
			a = m.ReadRef(a, nodeNext)
		}
		return nil
	}
	err := v.RunMutators(3, func(m *wearmem.Mutator, yield func()) error {
		for round := 0; round < rounds; round++ {
			yield()
			if m == reader {
				if err := walk(m, round); err != nil {
					return err
				}
				continue
			}
			if m == writers[0] && round == rounds/2 {
				inject()
			}
			// Garbage churn through this mutator's private context;
			// collections triggered here must not disturb the reader.
			m.MustNewArray(blob, 256)
		}
		return nil
	})
	if err != nil {
		panic(err)
	}

	gs := v.GCStats()
	fmt.Printf("runtime:  %d mutators, %d collections, %d dynamic failures handled\n",
		v.Mutators(), gs.Collections, gs.DynamicFailures)
	fmt.Printf("          %d objects evacuated\n", gs.ObjectsEvacuated)
	if !injected {
		panic("injection never ran")
	}
	if gs.DynamicFailures == 0 {
		panic("dynamic failure not delivered")
	}
	// One last walk from the main goroutine: the chain survived a line
	// failure that hit a mutator which never allocates.
	a := head
	for i := chainLen - 1; i >= 0; i-- {
		if a == 0 || v.ReadWord(a, nodeVal) != uint64(i) {
			panic("reader data lost")
		}
		a = v.ReadRef(a, nodeNext)
	}
	fmt.Println("reader:   chain intact after a failure on a non-allocating mutator")
}
