package core

import (
	"reflect"
	"testing"

	"wearmem/internal/heap"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
)

// markAt is one GCTraceMark a probe saw: the object and the simulated time.
type markAt struct {
	addr uint64
	now  stats.Cycles
}

// recordMarks returns a probe constructor that appends every GCTraceMark,
// with the plan clock's time, to marks.
func recordMarks(marks *[]markAt) func(*stats.Clock) probe.Hook {
	return func(c *stats.Clock) probe.Hook {
		return func(p probe.Point, addr uint64) {
			if p == probe.GCTraceMark {
				*marks = append(*marks, markAt{addr, c.Now()})
			}
		}
	}
}

// The baton tracer charges a scanned object's slots in one Charge only when
// nothing can read the clock between two slots. One marking cycle runs
// three ways — as it is, with a probe listening, and with a pause budget
// that arms a deadline it never reaches — and every way ends on the same
// clock and event counts; with and without the deadline the probe sees the
// same objects marked in the same order at the same simulated times. A
// budget that does interrupt marks in that order too. A stop-the-world
// collection charges the same with and without a probe.
func TestTraceChargesDoNotDependOnListeners(t *testing.T) {
	var probed, deadlined, sliced []markAt
	plain := runTraceWorkload(t, envOpts{generational: true, marking: true})
	withProbe := runTraceWorkload(t, envOpts{generational: true, marking: true, probe: recordMarks(&probed)})
	withBudget := runTraceWorkload(t, envOpts{generational: true, pauseWork: 1 << 30, probe: recordMarks(&deadlined)})
	for name, e := range map[string]*testEnv{"probe": withProbe, "budget": withBudget} {
		if e.clock.Now() != plain.clock.Now() || !reflect.DeepEqual(e.clock.Snapshot(), plain.clock.Snapshot()) {
			t.Errorf("with a %s: clock %d, counts %v; as it is: %d, %v",
				name, e.clock.Now(), e.clock.Snapshot(), plain.clock.Now(), plain.clock.Snapshot())
		}
		if *e.plan.Stats() != *plain.plan.Stats() {
			t.Errorf("with a %s: the collection's statistics differ from the run as it is", name)
		}
	}
	if len(probed) < 500 || !reflect.DeepEqual(probed, deadlined) {
		t.Fatalf("the probe saw %d marks without a deadline and %d with one, or at other times", len(probed), len(deadlined))
	}

	sliceEnv := runTraceWorkload(t, envOpts{generational: true, pauseWork: 250, probe: recordMarks(&sliced)})
	if sliceEnv.plan.Stats().MarkIncrements < 10 || len(sliced) != len(probed) {
		t.Fatalf("budget 250: %d increments, %d marks (want at least 10, %d)",
			sliceEnv.plan.Stats().MarkIncrements, len(sliced), len(probed))
	}
	for i := range sliced {
		if sliced[i].addr != probed[i].addr {
			t.Fatalf("budget 250: mark %d is %#x, unbounded %#x", i, sliced[i].addr, probed[i].addr)
		}
	}
	for _, ev := range []stats.Event{stats.EvObjectMark, stats.EvObjectScan, stats.EvRootScan} {
		if got, want := sliceEnv.clock.Count(ev), plain.clock.Count(ev); got != want {
			t.Errorf("budget 250 charged %v %d times, unbounded %d", ev, got, want)
		}
	}
	unheard := runTraceWorkload(t, envOpts{generational: true, pauseWork: 250})
	if unheard.clock.Now() != sliceEnv.clock.Now() || *unheard.plan.Stats() != *sliceEnv.plan.Stats() {
		t.Errorf("budget 250 without a probe: clock %d in %d increments; with one: %d in %d",
			unheard.clock.Now(), unheard.plan.Stats().MarkIncrements, sliceEnv.clock.Now(), sliceEnv.plan.Stats().MarkIncrements)
	}

	var stw []markAt
	stwPlain := runTraceWorkload(t, envOpts{})
	stwProbe := runTraceWorkload(t, envOpts{probe: recordMarks(&stw)})
	if stwProbe.clock.Now() != stwPlain.clock.Now() || !reflect.DeepEqual(stwProbe.clock.Snapshot(), stwPlain.clock.Snapshot()) ||
		*stwProbe.plan.Stats() != *stwPlain.plan.Stats() || len(stw) == 0 {
		t.Errorf("stop-the-world with a probe: clock %d, %d marks seen; without: clock %d, or other statistics",
			stwProbe.clock.Now(), len(stw), stwPlain.clock.Now())
	}
}

// A GCTraceMark listener may rewrite the header of the object being marked
// (a torture schedule can smash one there): the tracer stamps the header as
// the listener left it, not the word it loaded before the probe fired.
func TestTraceMarkRereadsTheHeaderAfterItsProbe(t *testing.T) {
	var e *testEnv
	e = newEnv(t, envOpts{probe: func(*stats.Clock) probe.Hook {
		return func(p probe.Point, addr uint64) {
			if p == probe.GCTraceMark {
				e.model.SetLogged(heap.Addr(addr), true)
			}
		}
	}})
	var head heap.Addr
	e.addRoot(&head)
	head = e.buildList(100)
	e.plan.Collect(true, e.roots)
	n := 0
	for a := head; a != 0; a = e.getRef(a, nodeNext) {
		if !e.model.Logged(a) {
			t.Fatalf("node %d: the tracer stamped the header it loaded before its probe rewrote it", n)
		}
		n++
	}
	if n != 100 {
		t.Fatalf("the list has %d nodes after the collection, want 100", n)
	}
}
