package core

import (
	"sort"
	"sync"

	"wearmem/internal/failmap"
	"wearmem/internal/heap"
	"wearmem/internal/stats"
)

// los is the page-grained large object space shared by all plans (§3.3.3).
// It is a fussy allocator: under failure-awareness it demands perfect
// pages, which the OS satisfies from perfect PCM or by borrowing DRAM with
// the debit-credit penalty. Large objects are never moved.
type los struct {
	mem   Memory
	model *heap.Model
	clock *stats.Clock
	// perfect demands failure-free pages (failure-aware mode).
	perfect bool

	// mu guards the objects map. On the baton engine it is uncontended; on
	// the threaded engine mutators allocate and trace workers probe contains
	// concurrently (sweep runs serially after the workers join).
	mu sync.RWMutex

	objects map[heap.Addr]int // object base -> page count
}

func newLOS(mem Memory, model *heap.Model, clock *stats.Clock, perfect bool) *los {
	return &los{mem: mem, model: model, clock: clock, perfect: perfect,
		objects: make(map[heap.Addr]int)}
}

// alloc places a large object, returning ErrHeapFull when the budget is
// exhausted.
func (l *los) alloc(ty *heap.Type, size, arrayLen int) (heap.Addr, error) {
	pages := (size + failmap.PageSize - 1) / failmap.PageSize
	base, fresh, err := l.mem.AcquirePages(pages, l.perfect)
	if err != nil {
		return 0, err
	}
	l.clock.Charge1(stats.EvLOSAlloc)
	l.clock.Charge(stats.EvAllocBytes, uint64(size))
	if !fresh {
		l.model.S.Zero(base, pages*failmap.PageSize)
	}
	l.model.InitObject(base, ty, size, arrayLen)
	l.mu.Lock()
	l.objects[base] = pages
	l.mu.Unlock()
	return base, nil
}

// contains reports whether a is a large object base.
func (l *los) contains(a heap.Addr) bool {
	l.mu.RLock()
	_, ok := l.objects[a]
	l.mu.RUnlock()
	return ok
}

// sweep frees dead large objects. During a full collection an object is
// dead when its epoch differs from the current epoch; during a nursery
// collection only never-marked (epoch 0) objects die — sticky mark bits
// keep old objects alive without retracing them.
func (l *los) sweep(epoch uint16, full bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Deterministic iteration: sort the bases.
	bases := make([]heap.Addr, 0, len(l.objects))
	for b := range l.objects {
		bases = append(bases, b)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	for _, base := range bases {
		l.clock.Charge1(stats.EvBlockSweep)
		e := l.model.Epoch(base)
		dead := e != epoch
		if !full {
			dead = e == 0
		}
		if !dead {
			continue
		}
		pages := l.objects[base]
		delete(l.objects, base)
		l.mem.ReleasePages(base, pages)
	}
}

// count returns the number of live large objects.
func (l *los) count() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.objects)
}
