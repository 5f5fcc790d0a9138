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

// policyZoo is the comparative frame-policy study: the wear-aware KV
// scenario runs over a deliberately fragile write-through device (low
// endurance, high variation) under each registered policy — the
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
func policyZoo(o Options, _ *Runner) *Report {
	bench, iters := kv.MustRegister(kv.Config{}), o.kvLatIterations()
	return &Report{
		Title: "Frame-policy zoo: endurance, throughput and tail latency per policy (implementation study)",
		Tables: bothEngines(func(engine string) Table {
			return policyZooTable(bench, engine, iters, o.Seed)
		}),
	}
}

const (
	// zooEndurance/zooVariation make the device fragile enough that a
	// standard-length run wears deep into failure; which policy postpones
	// the 50%-failed point is the study's endurance signal.
	zooEndurance = 96
	zooVariation = 0.25
	// zooFailedTarget is the device failure rate whose crossing time the
	// endurance column reports.
	zooFailedTarget = 0.5
)

// zooPolicies returns the policies under study, stock first.
func zooPolicies() []string { return []string{"paper", "rotate", "decoder", "migrate"} }

func policyZooTable(bench, engine string, iters int, seed int64) Table {
	t := Table{
		Title: fmt.Sprintf("Policy zoo (%s engine, %d mutators, wearing device, endurance %d)",
			engineName(engine), kvMutators, zooEndurance),
		Columns: []string{"policy", "50% failed", "endurance (Mcyc)", "failed lines", "ops",
			"throughput (ops/Mcyc)", "p99", "p999", "remaps", "borrows", "GCs"},
	}
	for _, pol := range zooPolicies() {
		t.Rows = append(t.Rows, policyZooCase(bench, engine, pol, iters, seed))
	}
	t.Notes = append(t.Notes,
		"endurance = simulated Mcycles until 50% of device lines have failed; when the run ends first, the total run time is a lower bound (50% failed = no)",
		"remaps = wear-triggered policy migrations (frame rotations, decoder swaps, DRAM promotions); borrows = DRAM pages taken",
		"baton rows are byte-identical per seed; threaded rows are honest concurrency and vary")
	return t
}

// policyZooCase runs the KV scenario under one policy on a fresh
// fragile device and renders the endurance and latency story.
func policyZooCase(bench, engine, policy string, iters int, seed int64) []Cell {
	prof := workload.ByName(bench)
	heapBytes := 2 * prof.MinHeap()
	// A roomy pool: the spread-wear policies need spare perfect frames to
	// rotate into, and the endurance comparison is about how they use the
	// same headroom.
	poolPages := 4 * heapBytes / failmap.PageSize
	threaded := engine == "threaded"
	m, _ := machine.Boot(machine.Spec{ // no image: nothing to restore or recover
		Kernel: kernel.Config{PCMPages: poolPages, Policy: policy},
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
			TraceWorkers: machine.ThreadedLanes(threaded, kvMutators),
		},
	})
	defer m.Close()

	// The crossing is sampled at iteration boundaries, then once more for
	// one that happened during the last stretch of work.
	var crossed bool
	var crossCycle stats.Cycles
	poll := func() {
		if !crossed && m.Device.FailureRate() >= zooFailedTarget {
			crossed, crossCycle = true, m.Clock.Now()
		}
	}
	lrec := stats.NewLatencyRecorder(kvMutators)
	prof.Latency = lrec.Shard
	prof.IterHook = func(int, *vm.VM) { poll() }
	err := prof.RunMutators(m.VM, iters, kvMutators)
	if err == nil {
		m.VM.FinishMark()
	}
	poll()

	cycles := m.Clock.Now()
	hit, endurance := "no", cycles // lower bound: the run ended before the crossing
	if crossed {
		hit, endurance = "yes", crossCycle
	}
	row := []Cell{Text(policy), Text(hit), Number(float64(endurance)/1e6, "%.2f"), Int(m.Device.FailedLines())}
	if err != nil {
		row = padRow(row, len(row)+4, DNF())
	} else {
		lr := latencyOf(lrec.Report())
		tput := 0.0
		if cycles > 0 {
			tput = float64(lr.Ops) / (float64(cycles) / 1e6)
		}
		row = append(row,
			Int(int(lr.Ops)),
			Number(tput, "%.1f"),
			cycleCell(lr.Overall.P99),
			cycleCell(lr.Overall.P999))
	}
	return append(row, Int(m.Kernel.PolicyRemaps()), Int(m.Kernel.Borrows()), Int(m.VM.GCStats().Collections))
}
