package sched

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// The interleaving must be strict round-robin and identical on every run,
// whatever GOMAXPROCS is: a hand-off never involves the Go scheduler.
func TestRoundRobinDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runOnce := func() []string {
		var log []string
		mk := func(name string, steps int) Func {
			return func(y Yielder) error {
				for i := 0; i < steps; i++ {
					log = append(log, fmt.Sprintf("%s.%d", name, i))
					y.Yield()
				}
				return nil
			}
		}
		if err := Run(mk("a", 3), mk("b", 1), mk("c", 2)); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return log
	}
	first := runOnce()
	want := []string{"a.0", "b.0", "c.0", "a.1", "c.1", "a.2"}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("interleaving = %v, want %v", first, want)
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 20; i++ {
			if got := runOnce(); !reflect.DeepEqual(got, first) {
				t.Fatalf("GOMAXPROCS=%d run %d produced %v, first run %v", procs, i, got, first)
			}
		}
	}
}

func TestErrorAbortsRemainingTasks(t *testing.T) {
	boom := errors.New("boom")
	var after int
	err := Run(
		func(y Yielder) error {
			y.Yield()
			return boom
		},
		func(y Yielder) error {
			for {
				y.Yield()
				after++ // must stop accumulating once task 0 failed
			}
		},
	)
	if !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want %v", err, boom)
	}
	if after > 2 {
		t.Fatalf("failed run let the looping task advance %d times", after)
	}
}

func TestPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if s := fmt.Sprint(r); s != "kaboom" {
			t.Fatalf("recovered %q, want kaboom", s)
		}
	}()
	_ = Run(
		func(y Yielder) error { panic("kaboom") },
		func(y Yielder) error {
			for i := 0; i < 100; i++ {
				y.Yield()
			}
			return nil
		},
	)
}

// An aborted task unwinds through its deferred functions exactly once
// (vm.RunMutators' defer m.Park() depends on it), and a task that had not
// started when an earlier one failed is never entered at all.
var errTaskBoom = errors.New("task boom")

// explodeInHelper panics below the task body, so a stack naming it was
// taken where the task panicked.
//
//go:noinline
func explodeInHelper() { panic(errTaskBoom) }

// TestPanicCarriesTaskStack: Run and Parallel re-raise a task's panic as a
// Panic that prints as the task's value, unwraps to it, and carries the
// stack of the frame that panicked rather than of the re-raise.
func TestPanicCarriesTaskStack(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"Run", func() { _ = Run(func(Yielder) error { explodeInHelper(); return nil }) }},
		{"Parallel", func() { _ = Parallel(func() error { explodeInHelper(); return nil }) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				p := recover()
				if s := fmt.Sprint(p); s != errTaskBoom.Error() {
					t.Errorf("the re-raised panic prints %q, want %q", s, errTaskBoom)
				}
				if err, ok := p.(error); !ok || !errors.Is(err, errTaskBoom) {
					t.Errorf("the re-raised panic %#v does not unwrap to the task's error", p)
				}
				if stack := string(PanicStack(p)); !strings.Contains(stack, "sched.explodeInHelper") {
					t.Errorf("the stack does not name the frame that panicked:\n%s", stack)
				}
			}()
			c.run()
		})
	}
}

func TestAbortRunsDefersAndSkipsUnstarted(t *testing.T) {
	boom := errors.New("boom")
	var deferred int
	var entered bool
	err := Run(
		func(y Yielder) error {
			defer func() { deferred++ }()
			for {
				y.Yield()
			}
		},
		func(y Yielder) error { return boom },
		func(y Yielder) error {
			entered = true
			return nil
		},
	)
	if !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want %v", err, boom)
	}
	if deferred != 1 {
		t.Fatalf("aborted task's deferred function ran %d times, want 1", deferred)
	}
	if entered {
		t.Fatal("a task that had not started was entered after an earlier failure")
	}
}

// The first error in round-robin order wins, not the lowest task index.
func TestFirstErrorInRoundRobinOrder(t *testing.T) {
	early, late := errors.New("early"), errors.New("late")
	err := Run(
		func(y Yielder) error {
			y.Yield()
			return late
		},
		func(y Yielder) error { return early },
	)
	if !errors.Is(err, early) {
		t.Fatalf("Run = %v, want %v", err, early)
	}
}

// No coroutine outlives Run, however it ends.
func TestNoGoroutineOutlivesRun(t *testing.T) {
	spin := func(y Yielder) error {
		for i := 0; i < 8; i++ {
			y.Yield()
		}
		return nil
	}
	failing := func(y Yielder) error {
		y.Yield()
		return errors.New("boom")
	}
	panicking := func(y Yielder) error {
		y.Yield()
		panic("kaboom")
	}
	cases := []struct {
		name  string
		tasks []Func
	}{
		{"clean", []Func{spin, spin, spin}},
		{"error", []Func{failing, spin}},
		{"panic", []Func{panicking, spin}},
		{"abort with tasks parked mid-Yield and unstarted", []Func{spin, spin, func(Yielder) error { return errors.New("boom") }, spin}},
	}
	for _, c := range cases {
		before := runtime.NumGoroutine()
		func() {
			defer func() { _ = recover() }() // the panic case re-raises; only the count matters here
			_ = Run(c.tasks...)
		}()
		if after := runtime.NumGoroutine(); after != before {
			t.Errorf("%s: %d goroutines before Run, %d after", c.name, before, after)
		}
	}
}

// Tasks share one plain int with no synchronization of their own: under
// -race this passes only if every hand-off is a happens-before edge.
func TestHandoffOrdersPlainMemory(t *testing.T) {
	const tasks, rounds = 4, 1000
	var counter int
	fns := make([]Func, tasks)
	for i := range fns {
		fns[i] = func(y Yielder) error {
			for r := 0; r < rounds; r++ {
				counter++
				y.Yield()
			}
			return nil
		}
	}
	if err := Run(fns...); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if counter != tasks*rounds {
		t.Fatalf("counter = %d, want %d", counter, tasks*rounds)
	}
}

func TestEmptyRun(t *testing.T) {
	if err := Run(); err != nil {
		t.Fatalf("Run() = %v", err)
	}
}

// BenchmarkSwitch measures one baton hand-off: two tasks yielding to each
// other, b.N switches in total.
func BenchmarkSwitch(b *testing.B) {
	task := func(y Yielder) error {
		for i := 0; i < b.N/2; i++ {
			y.Yield()
		}
		return nil
	}
	b.ResetTimer()
	if err := Run(task, task); err != nil {
		b.Fatal(err)
	}
}

// ForEach calls every index once with at most workers calls in flight, and
// with one worker or fewer calls them in index order.
func TestForEach(t *testing.T) {
	const n = 40
	for _, workers := range []int{0, 1, 3, 64} {
		var calls [n]atomic.Int32
		var running, peak atomic.Int32
		var order []int
		ForEach(n, workers, func(i int) {
			r := running.Add(1)
			for p := peak.Load(); r > p && !peak.CompareAndSwap(p, r); p = peak.Load() {
			}
			calls[i].Add(1)
			if workers <= 1 {
				order = append(order, i)
			}
			running.Add(-1)
		})
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Errorf("workers=%d: index %d called %d times", workers, i, c)
			}
		}
		if p := int(peak.Load()); p > max(workers, 1) {
			t.Errorf("workers=%d: %d calls in flight at once", workers, p)
		}
		if workers <= 1 && !slices.IsSorted(order) {
			t.Errorf("workers=%d: serial calls out of order: %v", workers, order)
		}
	}
}
