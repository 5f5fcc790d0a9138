package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"wearmem/internal/failmap"
	"wearmem/internal/kernel"
	"wearmem/internal/kv"
	"wearmem/internal/machine"
	"wearmem/internal/pcm"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
	"wearmem/internal/verify"
	"wearmem/internal/vm"
	"wearmem/internal/workload"
)

// restart is the restart-survival study: the wear-aware KV scenario loses
// power mid-load over devices worn to progressively higher failure rates,
// and each restart pays the full device-state recovery bill — drain the
// orphaned failure buffer, rescan the device, scrub the failure-carrying
// pages, admit the usable frames — before the server can take traffic
// again. The table reports that recovery latency against the failure
// rate, the recovered-state verifier's verdict, and the post-recovery
// request tail, on both execution engines. It is a study of this
// implementation (the paper's systems never restart), so it is reachable
// by id but excluded from "all".
//
// Unlike the figure experiments this one never goes through the memoizing
// Runner: a restart is a two-machine story (the doomed run and the
// recovered one) that RunConfig cannot name, so the cases are assembled
// directly, chaos-campaign style. Baton rows are byte-identical per seed;
// threaded rows are honest concurrency and vary.
func restart(o Options, _ *Runner) *Report {
	bench, iters := kv.MustRegister(kv.Config{}), o.kvLatIterations()
	return &Report{
		Title: "Crash-consistent restart: recovery latency vs device wear, post-recovery KV tail (implementation study)",
		Tables: bothEngines(func(engine string) Table {
			return restartTable(bench, engine, iters, o.Seed)
		}),
	}
}

// restartRates is the swept prior-life wear: the fraction of device lines
// already failed when the doomed machine boots.
func restartRates() []float64 { return []float64{0, 0.10, 0.30, 0.50} }

const (
	// restartCutNthAlloc cuts the power at this allocation probe firing —
	// deep inside the load phase at either iteration scale, never at a
	// quiescent boundary.
	restartCutNthAlloc = 4000
	// Restart-survival SLOs for the default KV scenario, in simulated
	// cycles: the recovery bill a restart may run up before serving, and
	// the post-recovery per-request p99. Both hold with wide margin at
	// every swept rate on both engines; checks/restart.json gates the
	// emitted JSON against the same budgets in CI.
	restartRecoverySLO = 200_000_000
	restartP99SLO      = 400_000
)

func restartTable(bench, engine string, iters int, seed int64) Table {
	t := Table{
		Title: fmt.Sprintf("Restart survival (%s engine, %d mutators, power cut mid-load, 4x heap)",
			engineName(engine), kvMutators),
		Columns: []string{"failure rate", "recovery (Mcyc)", "rediscovered", "scrubbed",
			"usable frames", "verified", "resume (Mcyc)", "GCs", "kv p50", "kv p99", "kv max", "SLO"},
	}
	for _, rate := range restartRates() {
		t.Rows = append(t.Rows, restartCase(bench, engine, rate, iters, seed))
	}
	t.Notes = append(t.Notes,
		"recovery = drain orphans + rescan + scrub failure-carrying pages + admit frames, before any mapping",
		"verified = recovered kernel tables cross-checked against a device ground-truth scan",
		fmt.Sprintf("SLO: recovery <= %d Mcyc and post-recovery kv p99 <= %d cycles (worn-out devices degrade gracefully)",
			restartRecoverySLO/1_000_000, restartP99SLO),
		"kv quantiles are per-request latency of the resumed server; baton rows are byte-identical per seed")
	return t
}

// restartCase runs one restart story — wear, doomed load, power cut,
// recovery, verification, resumed load under latency capture — and renders
// it, as far as it got.
func restartCase(bench, engine string, rate float64, iters int, seed int64) []Cell {
	prof := workload.ByName(bench)
	heapBytes := 4 * prof.MinHeap()
	spec := machine.Spec{
		Kernel:    kernel.Config{PCMPages: poolPagesFor(heapBytes, rate)},
		MinFrames: heapBytes / failmap.PageSize,
		VM: vm.Config{
			HeapBytes:    heapBytes,
			Compensate:   rate > 0,
			Collector:    vm.StickyImmix,
			FailureAware: true,
			WriteThrough: true,
			Threaded:     engine == "threaded",
			// One lane per mutator on either engine, as in every run that
			// splits a benchmark (DESIGN §16).
			TraceWorkers: kvMutators,
		},
	}

	// --- The doomed machine. ---
	doomed := spec
	doomed.Device = &pcm.Config{TrackData: true, Seed: seed}
	doomed.Probe = true
	// Prior-life wear: fail the target fraction of lines, each failure
	// serviced (drained) long before this boot — the device a long-lived
	// deployment restarts onto. Wear-out is spatially correlated (hot
	// neighbourhoods die together), so the failures land as contiguous
	// half-page runs: every worn page keeps a contiguous working half the
	// allocator can still use, which is also what keeps the KV scenario's
	// medium values viable at 50% wear (uniform 64 B holes would shred
	// every contiguous run long before that).
	doomed.OnDevice = func(dev *pcm.Device) {
		rng := rand.New(rand.NewSource(seed + 1))
		const runLines = failmap.LinesPerPage / 2
		halves := rng.Perm(dev.Lines() / runLines)
		targetRuns := int(rate * float64(len(halves)))
		for _, h := range halves[:targetRuns] {
			for l := h * runLines; l < (h+1)*runLines; l++ {
				if dev.ForceFail(l, nil) {
					dev.Drain()
				}
			}
		}
	}
	m, _ := machine.Boot(doomed) // no image: nothing to restore or recover
	defer m.Close()
	// Boot-time scan, before the runtime's first mapping request reads the
	// table (vm.New maps nothing): the doomed OS knows its device.
	m.Kernel.RediscoverFailures()

	// The cut: at the Nth allocation the power fails and the device's
	// durable state is captured mid-operation. The doomed run is then let
	// finish — nothing after the snapshot is observable to the restart.
	var cutMu sync.Mutex
	var bumps int
	var img *pcm.DeviceImage
	m.SetProbe(func(p probe.Point, _ uint64) {
		if p != probe.AllocBump {
			return
		}
		cutMu.Lock()
		bumps++
		if bumps == restartCutNthAlloc && img == nil {
			img = m.Device.Snapshot()
		}
		cutMu.Unlock()
	})
	_ = prof.RunMutators(m.VM, iters, kvMutators)
	if img == nil {
		// The load never reached the cut (tiny quick runs): power off at
		// the end instead — still an unclean shutdown of a worn device.
		img = m.Device.Snapshot()
	}

	// --- The recovered machine, on its own clock: the recovery bill and
	// the resumed server's latency are measured clean. ---
	spec.Image = img
	m2, err := machine.Boot(spec)
	var rec kernel.RecoverStats
	if m2 != nil {
		defer m2.Close()
		rec = *m2.Recovery
	}
	mcyc := func(c stats.Cycles) Cell { return Number(float64(c)/1e6, "%.2f") }
	row := []Cell{Number(100*rate, "%.0f%%"),
		mcyc(rec.Cycles), Int(rec.Rediscovered), Int(rec.Scrubbed), Int(rec.UsableFrames)}
	if errors.Is(err, kernel.ErrDeviceWornOut) {
		return append(padRow(append(row, Text("worn out")), 11, DNF()), Text("n/a"))
	}
	if err != nil {
		return append(row[:1], Text("recover failed: "+err.Error()))
	}
	if rep := verify.Recovered(verify.RecoveredTarget{
		Pool: m2.Kernel, Scan: m2.Device, Clusters: m2.Device,
	}); !rep.Ok() {
		return append(row, Text("FAIL: "+rep.Err().Error()))
	}
	row = append(row, Text("ok"))

	prof2 := workload.ByName(bench)
	lrec := stats.NewLatencyRecorder(kvMutators)
	prof2.Latency = lrec.Shard
	start := m2.Clock.Now()
	if err := prof2.RunMutators(m2.VM, iters, kvMutators); err != nil {
		return append(padRow(row, 11, DNF()), Text("MISS"))
	}
	lr := latencyOf(lrec.Report())
	row = append(row, mcyc(m2.Clock.Now()-start), Int(m2.VM.GCStats().Collections),
		cycleCell(lr.Overall.P50), cycleCell(lr.Overall.P99), cycleCell(lr.Overall.Max))
	slo := "ok"
	if rec.Cycles > restartRecoverySLO || lr.Overall.P99 > restartP99SLO {
		slo = "MISS"
	}
	return append(row, Text(slo))
}
