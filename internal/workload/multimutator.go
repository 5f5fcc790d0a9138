package workload

import (
	"math/rand"
	"sync"

	"wearmem/internal/vm"
)

// mutatorSeedStride separates the per-mutator rng streams; mutator i of a
// profile seeds with the profile's base seed plus i times this prime.
const mutatorSeedStride = 7919

// Share splits n across k mutators as evenly as possible, the first n%k
// mutators taking one extra — the deterministic partition RunMutators uses
// for live structures and iterations.
func Share(n, k, i int) int {
	s := n / k
	if i < n%k {
		s++
	}
	return s
}

// RunMutators executes the benchmark on the VM, split across the given
// number of mutators on the VM's engine (vm.RunMutators); it is the one way
// a profile runs, and a lone mutator is RunMutators(v, iterations, 1).
// Iterations <= 0 selects p.Iterations. Each mutator owns a share of the
// live structures, a share of the iterations, and its own rng stream,
// allocates through its private Immix context, and yields before every
// iteration so a collection (or failure up-call) triggered by any mutator
// finds it at a safepoint. On the baton engine the interleaving is
// deterministic; on the threaded engine it is whatever the host decides,
// so only engine-invariant outcomes (the live census, failure outcomes,
// verifier cleanliness) match. The first mutator to fail aborts the
// others; its error is returned (vm.ErrOutOfMemory reports a DNF through
// errors.Is).
func (p *Profile) RunMutators(v *vm.VM, iterations, mutators int) error {
	if iterations <= 0 {
		iterations = p.Iterations
	}
	if mutators < 1 {
		mutators = 1
	}
	// The shared iteration counter orders IterHook calls (the harness's
	// fault-injection schedule) across mutators. The baton already
	// serializes them, so there the sequence is deterministic and the lock
	// uncontended; threaded mutators race for it.
	var hookMu sync.Mutex
	shared := 0
	hook := func() {
		if p.IterHook == nil {
			return
		}
		hookMu.Lock()
		defer hookMu.Unlock()
		p.IterHook(shared, v)
		shared++
	}
	if p.Body != nil {
		// Scenario profile: shared structures are built once on the VM,
		// then each mutator runs the scenario body over its iteration
		// share, yielding (and firing IterHook) once per iteration through
		// the callback. The mutators attach before Prepare registers the
		// scenario's roots: the trace visits roots in registration order,
		// so that order is part of what a same-seed run reproduces.
		v.Mutator0()
		for v.Mutators() < mutators {
			v.AttachMutator()
		}
		if p.Prepare != nil {
			if err := p.Prepare(v); err != nil {
				return err
			}
		}
		return v.RunMutators(mutators, func(m *vm.Mutator, yield func()) error {
			iters := Share(iterations, mutators, m.ID())
			return p.Body(m, m.ID(), mutators, iters, func() {
				yield()
				hook()
			})
		})
	}
	ty := RegisterTypes(v)
	return v.RunMutators(mutators, func(m *vm.Mutator, yield func()) error {
		i := m.ID()
		st := &runState{rng: rand.New(rand.NewSource(int64(len(p.Name)) + 12345 + mutatorSeedStride*int64(i)))}
		err := p.setup(m, ty, st, Share(p.LiveListNodes, mutators, i),
			Share(p.LiveArrayBytes, mutators, i), Share(p.RegistrySlots, mutators, i))
		if err != nil {
			return err
		}
		for it := Share(iterations, mutators, i); it > 0; it-- {
			yield()
			if err := p.iterate(m, ty, st); err != nil {
				return err
			}
			hook()
		}
		return nil
	})
}
