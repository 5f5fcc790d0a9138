package chaos

import (
	"sync"

	"wearmem/internal/probe"
)

// threadedHook builds the probe hook for a threaded campaign. Probes fire
// from many goroutines — mutators bumping concurrently, trace and sweep
// workers, the kernel servicing a device interrupt — so injector state is
// mutex-guarded, and scheduled actions are NOT performed at the firing
// instant: an action touches the device, the kernel and the heap, and doing
// that from under a running mutator both races with the others and can
// deadlock against a probe fired while a kernel or device lock is held.
// Matched events are instead queued and performed at the next stop-the-world
// boundary (GCBegin/GCEnd) — the threaded engine's only mutator-quiescent
// instants — where the heap verifier runs too, as on the baton engine.
// Injected line failures then propagate through recovery, remapping and
// write-through wear while the mutators run again: the failure *handling*
// is what executes under real concurrency.
func (r *campaignRun) threadedHook() probe.Hook {
	type deferredEvent struct {
		e    Event
		addr uint64
	}
	var mu sync.Mutex
	var queue []deferredEvent
	return func(p probe.Point, addr uint64) {
		mu.Lock()
		for _, e := range r.in.matchOnly(p) {
			queue = append(queue, deferredEvent{e, addr})
		}
		mu.Unlock()
		if p != probe.GCBegin && p != probe.GCEnd {
			return
		}
		// Stop-the-world boundary: every mutator is parked and the
		// collector (this goroutine) is alone. Actions may fire nested
		// probes and match further events, so drain until empty — without
		// holding the mutex across an action, which would self-deadlock on
		// the nested firing.
		for {
			mu.Lock()
			if len(queue) == 0 {
				mu.Unlock()
				break
			}
			d := queue[0]
			queue = queue[1:]
			r.in.depth++
			mu.Unlock()
			effect := r.in.perform(d.e, d.addr)
			mu.Lock()
			r.in.depth--
			r.in.Log = append(r.in.Log, Fired{Event: d.e, Effect: effect})
			mu.Unlock()
		}
		if r.in.powerGone() {
			// The last power cut fired during the drain (a deferred cut
			// performed at this STW boundary): soft-stop, skip
			// verification — nothing after the cut instant is observable.
			r.fail(powerCutFailure)
			return
		}
		if r.failed() {
			return
		}
		switch p {
		case probe.GCEnd:
			r.verifyNow()
		case probe.GCBegin:
			if r.cfg.Mutators > 1 {
				// Ownership check at collection entry: contexts are
				// quiescent here and the sweep about to run will reset
				// them. The baton engine checks at AllocBlock instead,
				// which on this engine would race with running mutators.
				r.verifyContexts()
			}
		}
	}
}
