package harness

import (
	"fmt"

	"wearmem/internal/failmap"
	"wearmem/internal/kernel"
	"wearmem/internal/kv"
	"wearmem/internal/machine"
	"wearmem/internal/pcm"
	"wearmem/internal/stats"
	"wearmem/internal/vm"
	"wearmem/internal/workload"
)

// PolicyZoo is the comparative placement/remap policy study: the wear-aware
// KV scenario runs over a deliberately fragile write-through device (low
// endurance, high variation) under each registered policy pair — the
// paper's stock behavior, SoftWear-style rotation, WoLFRaM-style decoder
// swaps, and MigrantStore-style DRAM migration — on both execution engines.
// Each row reports endurance (simulated time until half the device's lines
// have failed), request throughput, tail latency, and the policy's
// migration/borrow activity. It is a study of this implementation (the
// paper fixes one placement scheme), so it is reachable by id but excluded
// from "all".
//
// Like restart, the cases are assembled directly rather than through the
// memoizing Runner: the endurance metric needs mid-run device polling that
// RunConfig cannot name. Baton rows are byte-identical per seed; threaded
// rows are honest concurrency and vary.
func PolicyZoo(o Options) *Report {
	bench := kv.MustRegister(kv.Config{})
	iters := o.kvLatIterations()
	var tables []Table
	for _, engine := range []string{"", "threaded"} {
		tables = append(tables, policyZooTable(bench, engine, iters, o.Seed))
	}
	return &Report{
		ID:     "policyzoo",
		Title:  "Placement/remap policy zoo: endurance, throughput and tail latency per policy (implementation study)",
		Tables: tables,
	}
}

const (
	// zooMutators matches the KV latency studies.
	zooMutators = 4
	// zooEndurance/zooVariation make the device fragile enough that a
	// standard-length run wears deep into failure; which policy postpones
	// the 50%-failed point is the study's endurance signal.
	zooEndurance = 96
	zooVariation = 0.25
	// zooFailedTarget is the device failure rate whose crossing time the
	// endurance column reports.
	zooFailedTarget = 0.5
)

// zooPolicies returns the policy pairs under study, stock first.
func zooPolicies() []string { return []string{"paper", "rotate", "decoder", "migrate"} }

// zooResult is one engine × policy case.
type zooResult struct {
	dnf bool

	cycles      stats.Cycles
	crossed     bool
	crossCycle  stats.Cycles // clock at the 50%-failed crossing (valid when crossed)
	failedLines int

	gcs     int
	remaps  int
	borrows int
	lat     *stats.LatencyReport
}

func policyZooTable(bench, engine string, iters int, seed int64) Table {
	name := "baton"
	if engine == "threaded" {
		name = "threaded"
	}
	t := Table{
		Title: fmt.Sprintf("Policy zoo (%s engine, %d mutators, wearing device, endurance %d)",
			name, zooMutators, zooEndurance),
		Columns: []string{"policy", "50% failed", "endurance (Mcyc)", "failed lines", "ops",
			"throughput (ops/Mcyc)", "p99", "p999", "remaps", "borrows", "GCs"},
	}
	for _, pol := range zooPolicies() {
		res := policyZooCase(bench, engine, pol, iters, seed)
		t.Rows = append(t.Rows, policyZooRow(pol, res))
	}
	t.Notes = append(t.Notes,
		"endurance = simulated Mcycles until 50% of device lines have failed; when the run ends first, the total run time is a lower bound (50% failed = no)",
		"remaps = wear-triggered policy migrations (frame rotations, decoder swaps, DRAM promotions); borrows = DRAM pages taken",
		"baton rows are byte-identical per seed; threaded rows are honest concurrency and vary")
	return t
}

// policyZooCase runs the KV scenario under one policy pair on a fresh
// fragile device and digests the endurance and latency story.
func policyZooCase(bench, engine, policy string, iters int, seed int64) zooResult {
	var res zooResult
	prof := workload.ByName(bench)
	heapBytes := 2 * prof.MinHeap()
	// A roomy pool: the spread-wear policies need spare perfect frames to
	// rotate into, and the endurance comparison is about how they use the
	// same headroom.
	poolPages := 4 * heapBytes / failmap.PageSize
	threaded := engine == "threaded"
	m, _ := machine.Boot(machine.Spec{ // no image: nothing to restore or recover
		Kernel: kernel.Config{PCMPages: poolPages, Placement: policy, Remap: policy},
		Device: &pcm.Config{
			Endurance: zooEndurance,
			Variation: zooVariation,
			TrackData: true,
			Seed:      seed + 7,
		},
		VM: vm.Config{
			HeapBytes:    heapBytes,
			Collector:    vm.StickyImmix,
			FailureAware: true,
			WriteThrough: true,
			Threaded:     threaded,
			TraceWorkers: machine.ThreadedLanes(threaded, zooMutators),
		},
	})
	defer m.Close()

	// The crossing is sampled at iteration boundaries, then once more for
	// one that happened during the last stretch of work.
	poll := func() {
		if !res.crossed && m.Device.FailureRate() >= zooFailedTarget {
			res.crossed = true
			res.crossCycle = m.Clock.Now()
		}
	}
	lrec := stats.NewLatencyRecorder(zooMutators)
	prof.Latency = lrec.Shard
	prof.IterHook = func(int, *vm.VM) { poll() }
	err := prof.RunMutators(m.VM, iters, zooMutators)
	if err == nil {
		m.VM.FinishMark()
	}
	poll()

	res.dnf = err != nil
	res.cycles = m.Clock.Now()
	res.failedLines = m.Device.FailedLines()
	res.gcs = m.VM.GCStats().Collections
	res.remaps = m.Kernel.PolicyRemaps()
	res.borrows = m.Kernel.Borrows()
	res.lat = lrec.Report()
	return res
}

// policyZooRow renders one policy's digest.
func policyZooRow(policy string, res zooResult) []Cell {
	row := []Cell{Text(policy)}
	endurance := res.cycles // lower bound: the run ended before the crossing
	hit := "no"
	if res.crossed {
		endurance = res.crossCycle
		hit = "yes"
	}
	row = append(row,
		Text(hit),
		Number(float64(endurance)/1e6, "%.2f"),
		Int(res.failedLines))
	lr := res.lat
	if lr == nil {
		lr = &stats.LatencyReport{}
	}
	if res.dnf {
		row = append(row, DNF(), DNF(), DNF(), DNF())
	} else {
		tput := 0.0
		if res.cycles > 0 {
			tput = float64(lr.Ops) / (float64(res.cycles) / 1e6)
		}
		row = append(row,
			Int(int(lr.Ops)),
			Number(tput, "%.1f"),
			Number(float64(lr.Overall.P99), "%.0f"),
			Number(float64(lr.Overall.P999), "%.0f"))
	}
	return append(row, Int(res.remaps), Int(res.borrows), Int(res.gcs))
}
