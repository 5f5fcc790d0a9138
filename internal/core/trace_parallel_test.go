package core

import (
	"runtime"
	"testing"
	"time"

	"wearmem/internal/heap"
	"wearmem/internal/stats"
	"wearmem/internal/verify"
)

// runTraceWorkload builds a fixed multi-root graph (linked lists of varied
// length, a cross-linking ref array, garbage in between), collects once —
// a stop-the-world full collection, or one whole marking cycle when the
// options ask for increments or markers — and validates the surviving
// graph. The build is fully deterministic so every tracer sees an
// identical heap.
func runTraceWorkload(t *testing.T, o envOpts) *testEnv {
	t.Helper()
	e := newEnv(t, o)
	heads := make([]heap.Addr, 6)
	for i := range heads {
		e.roots.Add(&heads[i])
	}
	for i := range heads {
		heads[i] = e.buildList(50 + i*17)
		for j := 0; j < 30*i; j++ {
			e.newNode(uint64(j)) // garbage between the lists
		}
	}
	var arr heap.Addr
	e.roots.Add(&arr)
	arr = e.alloc(e.refs, heap.ArraySize(e.refs, len(heads)), len(heads))
	for i, h := range heads {
		e.setRef(arr, int(heap.ArrayHeaderSize)+i*int(heap.WordSize), h)
	}
	switch ix, _ := e.plan.(*Immix); {
	case o.pauseWork > 0:
		ix.BeginMark(e.roots, 0)
		for !ix.MarkIncrement(o.pauseWork) {
		}
		ix.FinishMark(e.roots)
	case o.concMark > 0:
		ix.BeginMark(e.roots, o.concMark)
		for !ix.MarkDone() {
			runtime.Gosched()
		}
		ix.FinishMark(e.roots)
	default:
		e.plan.Collect(true, e.roots)
	}
	for i := range heads {
		e.checkList(heads[i], 50+i*17)
	}
	return e
}

// Every tracer and every driver must mark exactly the objects the serial
// trace marks and charge exactly the same per-object activity; only the
// advance of simulated time (critical path vs sum) may differ. A marking
// cycle scans the roots twice (Begin and the Finish re-scan).
func TestTraceParallelMatchesSerial(t *testing.T) {
	serial := runTraceWorkload(t, envOpts{})
	ss := serial.plan.Stats()
	census := verify.Census(serial.model, serial.roots)
	if ss.ParallelTraces != 0 || ss.TraceWorkCycles != 0 {
		t.Fatalf("serial trace recorded parallel stats: %+v", ss)
	}
	for _, tc := range []struct {
		name     string
		opts     envOpts
		parallel int // ParallelTraces the run must record
	}{
		{"1 lane", envOpts{traceWorkers: 1}, 0},
		{"2 lanes", envOpts{traceWorkers: 2}, 1},
		{"4 lanes", envOpts{traceWorkers: 4}, 1},
		{"8 lanes", envOpts{traceWorkers: 8}, 1},
		{"threaded 2", envOpts{traceWorkers: 2, threaded: true}, 1},
		{"threaded 4", envOpts{traceWorkers: 4, threaded: true}, 1},
		{"increments", envOpts{generational: true, pauseWork: 250}, 0},
		{"1 marker", envOpts{generational: true, threaded: true, concMark: 1}, 0},
		{"2 markers", envOpts{generational: true, threaded: true, concMark: 2}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := runTraceWorkload(t, tc.opts)
			st := e.plan.Stats()
			if got := verify.Census(e.model, e.roots); got != census {
				t.Fatalf("live set %+v, serial %+v", got, census)
			}
			if st.ObjectsMarked != ss.ObjectsMarked || st.BytesMarkedLive != ss.BytesMarkedLive {
				t.Fatalf("marked %d objects / %d bytes, serial marked %d / %d",
					st.ObjectsMarked, st.BytesMarkedLive, ss.ObjectsMarked, ss.BytesMarkedLive)
			}
			if st.ObjectsEvacuated != ss.ObjectsEvacuated {
				t.Fatalf("evacuated %d, serial %d", st.ObjectsEvacuated, ss.ObjectsEvacuated)
			}
			rootScans := serial.clock.Count(stats.EvRootScan)
			if tc.opts.pauseWork > 0 || tc.opts.concMark > 0 {
				rootScans *= 2
				if tc.opts.pauseWork > 0 && st.MarkIncrements < 10 {
					t.Fatalf("budget %d took only %d increments", tc.opts.pauseWork, st.MarkIncrements)
				}
			}
			if got := e.clock.Count(stats.EvRootScan); got != rootScans {
				t.Fatalf("charged EvRootScan %d times, want %d", got, rootScans)
			}
			for _, ev := range []stats.Event{stats.EvObjectMark, stats.EvObjectScan} {
				if got, want := e.clock.Count(ev), serial.clock.Count(ev); got != want {
					t.Fatalf("charged %v %d times, serial %d", ev, got, want)
				}
			}
			if st.ParallelTraces != tc.parallel {
				t.Fatalf("recorded %d parallel traces, want %d", st.ParallelTraces, tc.parallel)
			}
			if tc.opts.traceWorkers == 1 && (st.TraceWorkCycles != 0 || *st != *ss || e.clock.Now() != serial.clock.Now()) {
				t.Fatalf("1 lane is not the serial collector:\n%+v\n%+v", *st, *ss)
			}
		})
	}
}

// The serial collection's charges are pinned to the values measured before
// the serial trace became the 1-lane case of the lane tracer: the same
// fixture must cost the main clock the same total, whichever way it is
// reached.
func TestSerialTraceCyclesPinned(t *testing.T) {
	for _, workers := range []int{0, 1} {
		e := runTraceWorkload(t, envOpts{traceWorkers: workers})
		st := e.plan.Stats()
		if e.clock.Now() != 90084 || st.TraceCycles != 48936 || st.SweepCycles != 284 ||
			st.TotalGCCycles != 49220 || st.Collections != 1 || st.BytesReclaimed != 41728 {
			t.Fatalf("workers=%d: clock %d, trace %d, sweep %d, total %d, collections %d, reclaimed %d",
				workers, e.clock.Now(), st.TraceCycles, st.SweepCycles, st.TotalGCCycles, st.Collections, st.BytesReclaimed)
		}
		if st.ObjectsMarked != 556 || st.BytesMarkedLive != 22264 || st.ObjectsEvacuated != 0 {
			t.Fatalf("workers=%d: marked %d / %d bytes, evacuated %d",
				workers, st.ObjectsMarked, st.BytesMarkedLive, st.ObjectsEvacuated)
		}
		for ev, want := range map[stats.Event]uint64{stats.EvObjectMark: 556, stats.EvObjectScan: 1116, stats.EvRootScan: 7} {
			if got := e.clock.Count(ev); got != want {
				t.Fatalf("workers=%d: charged %v %d times, want %d", workers, ev, got, want)
			}
		}
	}
}

// Two identical runs at the same worker count must agree on every cycle
// count — the determinism the multi-mutator reports depend on.
func TestTraceParallelDeterministic(t *testing.T) {
	a := runTraceWorkload(t, envOpts{traceWorkers: 4})
	b := runTraceWorkload(t, envOpts{traceWorkers: 4})
	if a.clock.Now() != b.clock.Now() {
		t.Fatalf("clocks diverged: %d vs %d", a.clock.Now(), b.clock.Now())
	}
	as, bs := a.plan.Stats(), b.plan.Stats()
	if *as != *bs {
		t.Fatalf("stats diverged:\n%+v\n%+v", *as, *bs)
	}
}

// A single wide root (one big ref array) seeds all the work into one lane;
// the other lanes must steal it, and the critical path must then be
// shorter than the total work — the point of tracing in parallel.
func TestTraceParallelStealsFromWideRoot(t *testing.T) {
	e := newEnv(t, envOpts{traceWorkers: 4})
	const n = 500
	var arr heap.Addr
	e.roots.Add(&arr)
	arr = e.alloc(e.refs, heap.ArraySize(e.refs, n), n)
	for i := 0; i < n; i++ {
		node := e.newNode(uint64(i))
		e.setRef(arr, int(heap.ArrayHeaderSize)+i*int(heap.WordSize), node)
	}
	e.plan.Collect(true, e.roots)
	st := e.plan.Stats()
	if st.TraceSteals == 0 {
		t.Fatal("no steals despite a single wide root and 4 lanes")
	}
	if st.TraceCritCycles >= st.TraceWorkCycles {
		t.Fatalf("critical path %d not below total work %d: lanes did not overlap",
			st.TraceCritCycles, st.TraceWorkCycles)
	}
	for i := 0; i < n; i++ {
		node := e.getRef(arr, int(heap.ArrayHeaderSize)+i*int(heap.WordSize))
		if got := e.model.S.Load64(node + nodeVal); got != uint64(i) {
			t.Fatalf("element %d holds %d after parallel trace", i, got)
		}
	}
}

// A CAS-claim worker that panics — here on a smashed header — never goes
// idle, and the survivors must not wait for it: the stop-the-world trace
// and a marking window's markers both surface the panic, from Collect and
// FinishMark, instead of hanging the collector with the other workers
// spinning in drain.
func TestThreadedWorkerPanicSurfaces(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts envOpts
	}{
		{"stw 4 workers", envOpts{traceWorkers: 4, threaded: true}},
		{"4 markers", envOpts{generational: true, threaded: true, concMark: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, tc.opts)
			ix := e.plan.(*Immix)
			const n = 500
			var arr heap.Addr
			e.roots.Add(&arr)
			arr = e.alloc(e.refs, heap.ArraySize(e.refs, n), n)
			for i := 0; i < n; i++ {
				e.setRef(arr, int(heap.ArrayHeaderSize)+i*int(heap.WordSize), e.newNode(uint64(i)))
			}
			// An unregistered type index: the worker that claims the node
			// panics reading its type.
			bad := e.getRef(arr, int(heap.ArrayHeaderSize)+n/2*int(heap.WordSize))
			e.model.S.Store64(bad, 0xBEEF<<24|uint64(e.model.SizeOf(bad))<<40)
			done := make(chan any, 1)
			go func() {
				defer func() { done <- recover() }()
				if tc.opts.concMark > 0 {
					ix.BeginMark(e.roots, tc.opts.concMark)
					ix.FinishMark(e.roots)
				} else {
					ix.Collect(true, e.roots)
				}
			}()
			select {
			case p := <-done:
				if p == nil {
					t.Fatal("the trace went through a smashed header without panicking")
				}
			case <-time.After(20 * time.Second):
				t.Fatal("a panicking trace worker hung the others")
			}
		})
	}
}

// A deletion barrier whose shade buffer is full blackens the referent on
// the spot, through the collector's own mark-in-place — the plain tracer
// on the baton engine, a CAS-claim worker on the threaded one. Either way
// the buffer stops at the cap, every shaded object ends the cycle marked,
// and the blackened ones are scanned (their children marked) by FinishMark.
func TestShadeAtCapBlackens(t *testing.T) {
	const cap, n = 8, 20
	for _, markers := range []int{0, 1} {
		e := newEnv(t, envOpts{generational: true, threaded: markers > 0, concMark: markers, modbufCap: cap})
		ix := e.plan.(*Immix)
		var keep heap.Addr
		e.roots.Add(&keep)
		keep = e.buildList(10)
		// Unreachable at the snapshot, so still white when shaded; each holds
		// a child only the FinishMark scan can reach.
		white := make([]heap.Addr, n)
		for i := range white {
			white[i] = e.newNode(uint64(i))
			e.setRef(white[i], nodeNext, e.newNode(uint64(100+i)))
		}
		ix.BeginMark(e.roots, markers)
		for markers > 0 && !ix.MarkDone() {
			runtime.Gosched()
		}
		for _, a := range white {
			if markers > 0 {
				ix.ShadeOn(ix.Context0(), a)
			} else {
				ix.Shade(a)
			}
		}
		if got := len(ix.satb) + len(ix.Context0().satb); got != cap {
			t.Fatalf("markers=%d: shade buffer holds %d entries, cap %d", markers, got, cap)
		}
		ix.FinishMark(e.roots)
		st := ix.Stats()
		if st.ForcedModbufDrains != n-cap {
			t.Fatalf("markers=%d: %d forced drains, want %d", markers, st.ForcedModbufDrains, n-cap)
		}
		if st.ObjectsMarked != 10+2*n {
			t.Fatalf("markers=%d: marked %d objects, want %d", markers, st.ObjectsMarked, 10+2*n)
		}
		for i, a := range white {
			if child := e.getRef(a, nodeNext); e.model.Epoch(a) != ix.Epoch() || e.model.Epoch(child) != ix.Epoch() {
				t.Fatalf("markers=%d: shaded object %d or its child left unmarked", markers, i)
			}
		}
		e.checkList(keep, 10)
	}
}
