package harness

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"wearmem/internal/vm"
)

// kvLatTestConfig is a short baton kv run with latency capture.
func kvLatTestConfig(mutators int) RunConfig {
	return RunConfig{
		Bench: "kv", HeapMult: 2, Collector: vm.StickyImmix,
		Iterations: 60, Seed: 11, Mutators: mutators, Latency: true,
	}
}

// A latency-enabled kv run must attach a populated report with ordered
// quantiles and consistent attribution totals.
func TestLatencyResultPopulated(t *testing.T) {
	res := NewRunner().Run(kvLatTestConfig(2))
	if res.DNF {
		t.Fatalf("kv run DNF: %s", res.Panic)
	}
	lr := res.Latency
	if lr == nil {
		t.Fatal("latency-enabled run attached no report")
	}
	if lr.Ops != 60*128 {
		t.Fatalf("recorded %d ops, want %d", lr.Ops, 60*128)
	}
	q := lr.Overall
	if q.P50 == 0 || q.P50 > q.P90 || q.P90 > q.P99 || q.P99 > q.P999 || q.P999 > q.Max {
		t.Fatalf("quantiles out of order: %+v", q)
	}
	if lr.TotalCycles < lr.GCPauseCycles+lr.AllocStallCycles {
		t.Fatalf("attributed cycles exceed total: %+v", lr)
	}
}

// A suite benchmark has no per-operation body: the Latency flag is
// accepted but no report is attached (omitempty keeps records clean).
func TestLatencyFlagOnSuiteBenchmark(t *testing.T) {
	rc := RunConfig{Bench: "sunflow", HeapMult: 2, Collector: vm.StickyImmix,
		Iterations: 60, Seed: 11, Latency: true}
	res := NewRunner().Run(rc)
	if res.DNF {
		t.Fatalf("sunflow run DNF: %s", res.Panic)
	}
	if res.Latency != nil {
		t.Fatalf("suite benchmark attached a latency report: %+v", res.Latency)
	}
}

// The Latency flag must participate in the memo key: flagged and
// unflagged runs of the same configuration are distinct records.
func TestLatencyFlagInMemoKey(t *testing.T) {
	a := kvLatTestConfig(1)
	b := a
	b.Latency = false
	if a.key() == b.key() {
		t.Fatal("Latency flag does not alter the canonical key")
	}
	b = a
	b.WriteThrough = true
	if a.key() == b.key() {
		t.Fatal("WriteThrough flag does not alter the canonical key")
	}
}

// The baton determinism guarantee extends to latency capture: the whole
// Result — quantile report included — is identical across same-seed
// repeats, and its JSON encoding is byte-identical.
func TestLatencyBatonByteIdentical(t *testing.T) {
	for _, muts := range []int{1, 3} {
		r1 := NewRunner().Run(kvLatTestConfig(muts))
		r2 := NewRunner().Run(kvLatTestConfig(muts))
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("mutators=%d: results differ across identical runs", muts)
		}
		j1, err1 := json.Marshal(r1.Latency)
		j2, err2 := json.Marshal(r2.Latency)
		if err1 != nil || err2 != nil {
			t.Fatalf("marshal: %v, %v", err1, err2)
		}
		if !bytes.Equal(j1, j2) {
			t.Fatalf("mutators=%d: latency JSON differs:\n%s\n%s", muts, j1, j2)
		}
	}
}

// A write-through run backs the pool with a wearing device; the short
// smoke here just proves the path executes and still reports latency.
func TestLatencyWriteThroughRuns(t *testing.T) {
	rc := kvLatTestConfig(2)
	rc.WriteThrough = true
	res := NewRunner().Run(rc)
	if res.DNF {
		t.Fatalf("write-through kv run DNF: %s", res.Panic)
	}
	if res.Latency == nil || res.Latency.Ops == 0 {
		t.Fatal("write-through run lost latency capture")
	}
}

// Ledger finding 1: a write-through run must write through. Until the
// harness booted its machines through machine.Boot it built the wearing
// device and never told the VM, so the device saw no write and the kvlat
// write-through row measured the healthy row again.
func TestWriteThroughReachesTheDevice(t *testing.T) {
	r := NewRunner()
	r.QuickDivisor = 10
	res := r.Run(RunConfig{Bench: "pmd", HeapMult: 2, Collector: vm.StickyImmix,
		FailureAware: true, WriteThrough: true, Seed: 42})
	if res.DNF {
		t.Fatalf("write-through pmd run DNF: %s", res.Panic)
	}
	for _, c := range res.Counters {
		if c.Event == "hw.pcmwrite" && c.Count == 0 {
			t.Error("write-through pmd run charged no hw.pcmwrite: the device saw no store")
		}
	}

	// The kvlat row: the write-through regime against the same regime with
	// the flag off (the healthy row differs from both by failure awareness
	// alone, so it cannot tell).
	reg := kvLatRegimes()[3]
	healthy := Options{Seed: 42}.kvConfig("")
	healthy.Iterations = 60
	through := reg.apply(healthy)
	dry := through
	dry.WriteThrough = false
	if reg.label != "write-through" || !through.WriteThrough {
		t.Fatalf("regime order changed: %q", reg.label)
	}
	if row := kvLatRow("", r.Run(through)); reflect.DeepEqual(row, kvLatRow("", r.Run(dry))) {
		t.Errorf("baton write-through row is the row of the same run without a device: %v", row)
	}
}

// kvlat is reachable by id but must stay out of "all" so the pinned
// full-suite reports remain stable.
func TestKVLatIsExtra(t *testing.T) {
	if ByID("kvlat") == nil {
		t.Fatal("kvlat not registered")
	}
	for _, e := range All() {
		if e.ID == "kvlat" {
			t.Fatal("kvlat leaked into the pinned \"all\" suite")
		}
	}
}

// The machine-readable determinism guarantee extends to latency-bearing
// reports: a baton-only latency sweep emits byte-identical JSON (typed
// tables plus run records carrying the quantile reports) at any worker
// count.
func TestLatencyJSONByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep twice")
	}
	emit := func(workers int) string {
		r := NewRunner()
		r.Workers = workers
		rep := r.Collect(func() *Report {
			tab := Table{Columns: []string{"mutators", "p99"}}
			for _, m := range []int{1, 2, 4} {
				res := r.Run(kvLatTestConfig(m))
				p99 := DNF()
				if res.Latency != nil {
					p99 = Number(float64(res.Latency.Overall.P99), "%.0f")
				}
				tab.Rows = append(tab.Rows, []Cell{Int(m), p99})
			}
			return &Report{ID: "kvlat-test", Title: "latency determinism", Tables: []Table{tab}}
		})
		var buf bytes.Buffer
		if err := (jsonEmitter{}).Emit(&buf, rep); err != nil {
			t.Fatalf("json emit: %v", err)
		}
		return buf.String()
	}
	serial := emit(1)
	parallel := emit(8)
	if serial != parallel {
		t.Error("workers=8 JSON differs from workers=1")
	}
	// The records must actually carry the reports.
	var doc struct {
		Runs []RunRecord `json:"runs"`
	}
	if err := json.Unmarshal([]byte(serial), &doc); err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, rec := range doc.Runs {
		if rec.Result.Latency != nil && rec.Result.Latency.Ops > 0 {
			found++
		}
	}
	if found != 3 {
		t.Fatalf("%d run records carry latency reports, want 3", found)
	}
}
