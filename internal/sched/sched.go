// Package sched provides the deterministic cooperative scheduler that
// drives multi-mutator runs. Each task is a coroutine (an iter.Pull
// sequence) and the baton is the thread of control itself: Run resumes the
// live tasks in strict round-robin order, and a running task hands the
// baton back by calling Yield (or by returning). Same task set ⇒ same
// interleaving, every run — which is what lets a multi-mutator experiment
// produce byte-identical reports from the same seed.
//
// Coroutines rather than a goroutine per task: a coroutine switch stays on
// the running thread and never enters the Go scheduler, so a hand-off costs
// the same at any GOMAXPROCS, where a channel hand-off parks one OS thread
// and wakes another unless the run is pinned to one P — and GOMAXPROCS is
// process-wide while the harness runs experiments in parallel. iter.Pull
// does a race-detector release/acquire on every switch, so the hand-offs
// still give the detector real happens-before edges to check the runtime's
// synchronization seams against.
package sched

import (
	"fmt"
	"iter"
)

// Yielder is the handle a task uses to cooperate. Calling Yield parks the
// task until the scheduler's round-robin comes back around to it.
type Yielder interface {
	// Yield hands the baton back to the scheduler. It returns when the
	// task is resumed, or panics internally (unwinding the task's stack)
	// when the run was aborted by another task's error.
	Yield()
}

// Func is one task's body. The error of the first task to fail — in
// deterministic round-robin order — aborts the run and is returned by Run.
type Func func(y Yielder) error

// abortSignal unwinds a task's stack when the run is torn down; the
// per-task wrapper recovers it.
type abortSignal struct{}

type task struct {
	next func() (struct{}, bool) // run until the next yield; false once finished
	stop func()                  // tear down: a parked task unwinds, an unstarted one never runs
	done bool
	err  error
	pan  interface{} // re-thrown task panic, if any
}

// yielder is the sequence's yield function; it returns false once the
// task has been stopped.
type yielder func(struct{}) bool

func (y yielder) Yield() {
	if !y(struct{}{}) {
		panic(abortSignal{})
	}
}

// Run executes the task functions to completion under the deterministic
// round-robin policy and returns the first error (nil when every task
// succeeded). A task panic is re-raised in the caller's goroutine once the
// remaining tasks have been torn down, so no coroutines leak.
func Run(fns ...Func) error {
	tasks := make([]task, len(fns))
	for i, fn := range fns {
		t := &tasks[i]
		t.next, t.stop = iter.Pull(func(yield func(struct{}) bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(abortSignal); !ok {
						t.pan = r
					}
				}
			}()
			t.err = fn(yielder(yield))
		})
	}

	var firstErr error
	var firstPan interface{}
	for live := len(tasks); live > 0; {
		for i := range tasks {
			t := &tasks[i]
			if t.done {
				continue
			}
			if firstErr != nil || firstPan != nil {
				t.stop()
			} else if _, parked := t.next(); parked {
				continue
			}
			t.done = true
			live--
			if firstErr == nil {
				firstErr = t.err
			}
			if firstPan == nil {
				firstPan = t.pan
			}
		}
	}
	if firstPan != nil {
		panic(firstPan)
	}
	if firstErr != nil {
		return fmt.Errorf("sched: task failed: %w", firstErr)
	}
	return nil
}

// Parallel executes the task functions on genuinely concurrent goroutines
// — the threaded engine's counterpart to Run. There is no baton and no
// yielding: interleaving is whatever the Go scheduler and the host decide,
// so anything the tasks share must carry its own synchronization. The
// first error in task-index order is returned; a task panic is re-raised
// in the caller's goroutine after every task has finished, so no
// goroutines leak either way.
func Parallel(fns ...func() error) error {
	if len(fns) == 0 {
		return nil
	}
	errs := make([]error, len(fns))
	pans := make([]interface{}, len(fns))
	done := make(chan int)
	for i := range fns {
		go func(i int) {
			defer func() {
				pans[i] = recover()
				done <- i
			}()
			errs[i] = fns[i]()
		}(i)
	}
	for range fns {
		<-done
	}
	for _, p := range pans {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("sched: task failed: %w", err)
		}
	}
	return nil
}
