package main

import (
	"strings"

	"wearmem/internal/harness"
	"wearmem/internal/stats"
)

// attribution folds simulator run results into the per-layer metrics that
// can be read off a Result from outside: the host split between mutator and
// collector (needs RecordWall), event counts, and the simulated-time ledger.
type attribution struct {
	runs                           int
	wallNS, gcNS, traceNS, sweepNS float64
	collections, fullGCs           int
	counts                         [stats.NumEvents]uint64
}

func (a *attribution) add(res harness.Result) {
	a.runs++
	a.wallNS += float64(res.WallNS)
	a.gcNS += float64(res.WallGCNS)
	a.traceNS += float64(res.WallTraceNS)
	a.sweepNS += float64(res.WallSweepNS)
	a.collections += res.Collections
	a.fullGCs += res.FullGCs
	// Counters come in event declaration order, one per event.
	for i, c := range res.Counters {
		a.counts[i] += c.Count
	}
}

// simShare maps an event-name prefix to the ledger share it is billed to.
var simShare = []struct{ prefix, share string }{
	{"mutator.", "mutator"}, {"field.", "mutator"}, {"array.", "mutator"}, {"arraylet.", "mutator"},
	{"alloc.", "alloc"}, {"gc.", "gc"}, {"hw.", "hw"}, {"os.", "os"},
}

func (a *attribution) metrics() map[string]float64 {
	m := map[string]float64{
		"core.collections":      float64(a.collections),
		"core.full_collections": float64(a.fullGCs),
		"kernel.upcalls":        float64(a.counts[stats.EvUpcall]),
		"kernel.interrupts":     float64(a.counts[stats.EvInterrupt]),
		"kernel.borrows":        float64(a.counts[stats.EvPageBorrow]),
	}
	if a.wallNS > 0 {
		m["core.gc.wall_share"] = a.gcNS / a.wallNS
		m["core.trace.wall_share"] = a.traceNS / a.wallNS
		m["core.sweep.wall_share"] = a.sweepNS / a.wallNS
		m["vm.mutator.wall_share"] = (a.wallNS - a.gcNS) / a.wallNS
		// Mutator-side events are the heap accesses made through the VM
		// API, one call each; compute units and allocated bytes are charged
		// in bulk and would swamp the count.
		events := a.counts[stats.EvFieldRead] + a.counts[stats.EvFieldWrite] +
			a.counts[stats.EvArrayAccess] + a.counts[stats.EvArrayletHop]
		if events > 0 {
			m["vm.mutator.ns_per_event"] = (a.wallNS - a.gcNS) / float64(events)
		}
	}
	if n := a.counts[stats.EvObjectMark]; n > 0 {
		m["core.trace.ns_per_mark"] = a.traceNS / float64(n)
	}
	if n := a.counts[stats.EvLineSweep]; n > 0 {
		m["core.sweep.ns_per_line"] = a.sweepNS / float64(n)
	}
	costs := stats.DefaultCosts()
	cycles := map[string]float64{}
	total := 0.0
	for i, n := range a.counts {
		ev := stats.Event(i)
		c := float64(n) * float64(costs[ev])
		total += c
		for _, s := range simShare {
			if strings.HasPrefix(ev.String(), s.prefix) {
				cycles[s.share] += c
				break
			}
		}
	}
	if total > 0 {
		for share, c := range cycles {
			m["sim.share."+share] = c / total
		}
	}
	return m
}
