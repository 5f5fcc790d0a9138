package vm

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func makeEngineVM(t *testing.T, threaded bool) *testVM {
	t.Helper()
	if threaded {
		return makeThreadedVM(t, 1<<20, StickyImmix, 2)
	}
	return makeVM(t, 1<<20, 0, StickyImmix, true, 0, 1)
}

// TestRunMutatorsBatch holds both engines to the batch contract: every id
// in 0..k-1 runs exactly once, mutators attached before the batch (and by
// an earlier batch) are reused rather than joined by fresh ones, and the
// first failing body's error is what the caller sees.
func TestRunMutatorsBatch(t *testing.T) {
	for _, threaded := range []bool{false, true} {
		name := "baton"
		if threaded {
			name = "threaded"
		}
		t.Run(name, func(t *testing.T) {
			tv := makeEngineVM(t, threaded)
			pre := []*Mutator{tv.Mutator0(), tv.AttachMutator()}
			const k = 4
			for batch := 0; batch < 2; batch++ {
				var mu sync.Mutex
				seen := map[int]*Mutator{}
				err := tv.RunMutators(k, func(m *Mutator, yield func()) error {
					yield()
					mu.Lock()
					defer mu.Unlock()
					if seen[m.ID()] != nil {
						return errors.New("id ran twice")
					}
					seen[m.ID()] = m
					return nil
				})
				if err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				for id := 0; id < k; id++ {
					if seen[id] == nil {
						t.Errorf("batch %d: no body saw id %d", batch, id)
					}
				}
				if len(seen) != k {
					t.Errorf("batch %d: bodies saw %d ids, want %d", batch, len(seen), k)
				}
				if seen[0] != pre[0] || seen[1] != pre[1] {
					t.Errorf("batch %d: mutators attached beforehand were not reused", batch)
				}
				if got := tv.Mutators(); got != k {
					t.Errorf("batch %d: %d mutators attached, want %d", batch, got, k)
				}
			}

			first, later := errors.New("first"), errors.New("later")
			err := tv.RunMutators(k, func(m *Mutator, yield func()) error {
				yield()
				switch m.ID() {
				case 1:
					return first
				case 2:
					return later
				}
				return nil
			})
			if !errors.Is(err, first) || errors.Is(err, later) {
				t.Errorf("batch error = %v, want the first failing mutator's", err)
			}
		})
	}
}

// Two baton batches over the same bodies interleave identically: the
// (id, step) sequence is the scheduler's round-robin, with an allocation
// and a collection inside the turns (the collection asserts that every
// other mutator was parked by the yield glue).
func TestRunMutatorsBatonInterleavesDeterministically(t *testing.T) {
	type turn struct{ id, step int }
	run := func() []turn {
		tv := makeEngineVM(t, false)
		var log []turn
		err := tv.RunMutators(3, func(m *Mutator, yield func()) error {
			for step := 0; step < 5; step++ {
				log = append(log, turn{m.ID(), step})
				if _, err := m.New(tv.node); err != nil {
					return err
				}
				if m.ID() == step%3 {
					tv.Collect(step%2 == 0)
				}
				yield()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same batch interleaved differently:\n%v\n%v", a, b)
	}
	if len(a) != 15 || a[0] != (turn{0, 0}) || a[1] != (turn{1, 0}) || a[3] != (turn{0, 1}) {
		t.Fatalf("not a round-robin interleaving: %v", a)
	}
}

// On the threaded engine yield is the safepoint poll: a body that forces
// collections stops the world over mutators that do nothing but yield, and
// the batch terminates.
func TestRunMutatorsThreadedYieldIsSafepoint(t *testing.T) {
	tv := makeEngineVM(t, true)
	const collections = 20
	var done atomic.Bool
	finished := make(chan error, 1)
	go func() {
		finished <- tv.RunMutators(4, func(m *Mutator, yield func()) error {
			if m.ID() == 0 {
				defer done.Store(true)
				for i := 0; i < collections; i++ {
					tv.Collect(i%2 == 0)
				}
				return nil
			}
			for !done.Load() {
				yield()
				runtime.Gosched()
			}
			return nil
		})
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("batch hung: a yielding mutator never reached the stop-the-world rendezvous")
	}
	if got := tv.GCStats().Collections; got < collections {
		t.Fatalf("%d collections ran, want at least %d", got, collections)
	}
}

// A body that fails mid-batch aborts the others at their next turn, and
// the abort unwinds through the yield glue's deferred Park: afterwards no
// mutator is left marked running, whether it was mid-yield, finished, or
// never started.
func TestRunMutatorsBatonErrorLeavesEveryMutatorParked(t *testing.T) {
	tv := makeEngineVM(t, false)
	boom := errors.New("boom")
	const k = 4
	started := make([]bool, k)
	err := tv.RunMutators(k, func(m *Mutator, yield func()) error {
		started[m.ID()] = true
		if m.ID() == 2 {
			return boom
		}
		for {
			yield()
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("batch error = %v, want %v", err, boom)
	}
	if want := []bool{true, true, true, false}; !reflect.DeepEqual(started, want) {
		t.Errorf("bodies started = %v, want %v", started, want)
	}
	for _, m := range tv.muts {
		if !m.parked {
			t.Errorf("mutator %d left unparked after the batch failed", m.ID())
		}
	}
	if running := tv.eng.(*baton).running; running != nil {
		t.Errorf("mutator %d still marked running after the batch failed", running.ID())
	}
	// The VM is usable again: a collection's parked assertion holds.
	tv.Collect(true)
}
