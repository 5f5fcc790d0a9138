package vm

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"wearmem/internal/heap"
	"wearmem/internal/kernel"
	"wearmem/internal/probe"
	"wearmem/internal/sched"
)

// The engine contract: what both implementations of the engine interface
// must do, checked through the public API on each.

var bothEngines = []struct {
	name     string
	threaded bool
}{{"baton", false}, {"threaded", true}}

// withMarking turns marking cycles on: a pause budget, which each engine
// meets its own way — bounded increments on the baton, a concurrent marker
// on the threaded engine.
func withMarking(c *Config) { c.PauseBudget = 1000 }

// TestEngineContractMaskedFailureQueues: an up-call that arrives while
// collection is masked — here from inside a probe at the start of a
// collection — is queued, not handled on the spot, and is handled by the
// time the next Collect returns.
func TestEngineContractMaskedFailureQueues(t *testing.T) {
	for _, eng := range bothEngines {
		t.Run(eng.name, func(t *testing.T) {
			var tv *testVM
			var head heap.Addr
			armed, queued := true, false
			tv = newTestVM(t, Config{
				HeapBytes: 1 << 20, Collector: StickyImmix, FailureAware: true, Threaded: eng.threaded,
				Probe: func(p probe.Point, _ uint64) {
					if p == probe.GCBegin && armed {
						armed = false
						tv.HandleFailures([]uint64{uint64(head)})
						queued = tv.PendingRecovery() && tv.GCStats().DynamicFailures == 0
					}
				},
			}, kernel.Config{})
			head = tv.buildList(t, 200)
			tv.AddRoot(&head)
			tv.Collect(true)
			if !queued {
				t.Fatal("a failure delivered inside a collection was not queued")
			}
			tv.Collect(false)
			if tv.PendingRecovery() || tv.GCStats().DynamicFailures != 1 {
				t.Fatalf("after the next Collect: pending %v, %d failures handled, want none pending and 1 handled",
					tv.PendingRecovery(), tv.GCStats().DynamicFailures)
			}
			tv.checkList(t, head, 200)
		})
	}
}

// TestEngineContractOpenWindowFailureIsHandled: FinishMark holds the
// collection right like Collect does, so either handles a failure that was
// queued while a marking window is open before it returns, and closes the
// window — on the threaded engine without touching block state under the
// still-running markers (run it under -race).
func TestEngineContractOpenWindowFailureIsHandled(t *testing.T) {
	closers := []struct {
		name string
		call func(*testVM)
	}{
		{"FinishMark", func(tv *testVM) { tv.FinishMark() }},
		{"Collect", func(tv *testVM) { tv.Collect(true) }},
	}
	for _, eng := range bothEngines {
		for _, closer := range closers {
			t.Run(eng.name+"/"+closer.name, func(t *testing.T) {
				var tv *testVM
				var head heap.Addr
				armed := false
				inject := func() { tv.HandleFailures([]uint64{uint64(head)}) }
				cfg := Config{
					HeapBytes: 1 << 20, Collector: StickyImmix, FailureAware: true, Threaded: eng.threaded,
					MarkTriggerBytes: 64 << 10,
					Probe: func(probe.Point, uint64) {
						if armed {
							armed = false
							inject()
						}
					},
				}
				withMarking(&cfg)
				tv = newTestVM(t, cfg, kernel.Config{})
				const nodes = 5000
				head = tv.buildList(t, nodes)
				tv.AddRoot(&head)
				for i := 0; !tv.Immix().Marking(); i++ {
					if i == 10000 {
						t.Fatal("no marking cycle opened")
					}
					tv.MustNewArray(tv.blob, 64)
				}
				if eng.threaded {
					// Any up-call is masked on the threaded engine.
					inject()
				} else {
					// The next allocation's mark increment fires its probe
					// under the busy guard.
					armed = true
					tv.MustNewArray(tv.blob, 64)
				}
				if !tv.Immix().Marking() || !tv.PendingRecovery() || tv.GCStats().DynamicFailures != 0 {
					t.Fatalf("set-up: marking %v, pending %v, %d failures handled; want an open window and one queued failure",
						tv.Immix().Marking(), tv.PendingRecovery(), tv.GCStats().DynamicFailures)
				}
				closer.call(tv)
				if tv.Immix().Marking() || tv.PendingRecovery() || tv.GCStats().DynamicFailures != 1 {
					t.Fatalf("afterwards: marking %v, pending %v, %d failures handled; want a closed window and the failure handled",
						tv.Immix().Marking(), tv.PendingRecovery(), tv.GCStats().DynamicFailures)
				}
				tv.checkList(t, head, nodes)
			})
		}
	}
}

// TestEngineContractPanicReleasesTheWorld: a panic inside exclusive's f on
// the threaded engine leaves the world started, so the mutator parked for
// the collection returns instead of deadlocking.
func TestEngineContractPanicReleasesTheWorld(t *testing.T) {
	tv := newTestVM(t, Config{
		HeapBytes: 1 << 20, Collector: StickyImmix, FailureAware: true, Threaded: true,
		Probe: func(p probe.Point, _ uint64) {
			if p == probe.GCBegin {
				panic("boom")
			}
		},
	}, kernel.Config{})
	bystander := tv.Attach(2)[1]
	var over atomic.Bool
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		tv.RunThreads(
			func() error {
				defer over.Store(true)
				tv.Collect(true)
				return nil
			},
			func() error {
				for !over.Load() {
					bystander.Safepoint()
					runtime.Gosched()
				}
				return nil
			},
		)
	}()
	select {
	case p := <-done:
		if tp, ok := p.(*sched.Panic); !ok || tp.Value != "boom" {
			t.Fatalf("the batch ended with %#v, want the collection's panic", p)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("the batch hung: a panicking collection left the world stopped")
	}
}

// TestEngineContractOneLadder: escalate is one ladder on every engine and
// in every marking mode. Counted as full collections run by the allocation
// that ends in ErrOutOfMemory, a stop-the-world runtime and one with marking
// cycles climb the same rungs, on the baton engine and the threaded one, and
// the ladder climbs past its unconditional full collection. The mark trigger
// is out of reach, so no cycle's own BeginMark is among them.
func TestEngineContractOneLadder(t *testing.T) {
	lastGasp := func(t *testing.T, threaded, marking bool) int {
		cfg := Config{HeapBytes: 256 << 10, Collector: StickyImmix, FailureAware: true, Threaded: threaded}
		if marking {
			withMarking(&cfg)
			cfg.MarkTriggerBytes = 1 << 30
		}
		tv := newTestVM(t, cfg, kernel.Config{})
		var head heap.Addr
		tv.AddRoot(&head)
		for {
			before := tv.GCStats().FullCollections
			a, err := tv.New(tv.node)
			if errors.Is(err, ErrOutOfMemory) {
				return tv.GCStats().FullCollections - before
			}
			if err != nil {
				t.Fatal(err)
			}
			tv.WriteRef(a, nodeNext, head)
			head = a
		}
	}
	want := lastGasp(t, false, false)
	// Here the first recourse's nursery collection escalates to a full one
	// on its low yield; then come the ladder's unconditional full collection
	// and at least one retry.
	if want < 3 {
		t.Fatalf("the baton stop-the-world ladder ran %d full collections before out-of-memory, want a retry after the unconditional one", want)
	}
	for _, eng := range bothEngines {
		t.Run(eng.name, func(t *testing.T) {
			for _, marking := range []bool{false, true} {
				if got := lastGasp(t, eng.threaded, marking); got != want {
					t.Errorf("marking %v: %d full collections before out-of-memory, the baton stop-the-world ladder runs %d",
						marking, got, want)
				}
			}
		})
	}
}

// TestMarkersDeriveFromPauseBudget: the concurrent marker count is not a
// setting. A threaded runtime with a pause budget gets one marker per trace
// lane (at least one); a baton, unbudgeted or write-through runtime gets
// none.
func TestMarkersDeriveFromPauseBudget(t *testing.T) {
	for _, eng := range bothEngines {
		for _, budget := range []int{0, 1000} {
			for _, through := range []bool{false, true} {
				for _, lanes := range []int{0, 1, 2, 4} {
					tv := newTestVM(t, Config{
						HeapBytes: 1 << 20, Collector: StickyImmix, FailureAware: true, Threaded: eng.threaded,
						PauseBudget: budget, WriteThrough: through, TraceWorkers: lanes,
					}, kernel.Config{})
					got, want := 0, 0
					if th, ok := tv.eng.(*threaded); ok {
						got = th.markers
					}
					if eng.threaded && budget > 0 && !through {
						want = max(lanes, 1)
					}
					if got != want {
						t.Errorf("%s budget %d write-through %v lanes %d: %d markers, want %d",
							eng.name, budget, through, lanes, got, want)
					}
					tv.Close()
				}
			}
		}
	}
}
