package harness

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/stats"
	"wearmem/internal/vm"
)

// The canonical key must cover every RunConfig field: setting any single
// field to a non-zero value has to change the key, or two distinct
// configurations could silently memoize to one result.
func TestKeyCoversEveryField(t *testing.T) {
	base := canonicalKey(RunConfig{})
	typ := reflect.TypeOf(RunConfig{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		rc := RunConfig{}
		v := reflect.ValueOf(&rc).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.String:
			v.SetString("x")
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(7)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(7)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(0.7)
		case reflect.Ptr:
			v.Set(reflect.ValueOf(failmap.New(failmap.PageSize)))
		default:
			t.Fatalf("RunConfig field %s has kind %v the test cannot set; extend it",
				f.Name, f.Type.Kind())
		}
		if canonicalKey(rc) == base {
			t.Errorf("changing field %s does not change the canonical key", f.Name)
		}
	}
}

// fmtKey is the canonical key as it was built before it appended with
// strconv: one fmt.Fprintf per field.
func fmtKey(rc any) string {
	v := reflect.ValueOf(rc)
	t := v.Type()
	var sb strings.Builder
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Name == "Inject" {
			fmt.Fprintf(&sb, "Inject=%v|", !v.Field(i).IsNil())
			continue
		}
		fmt.Fprintf(&sb, "%s=%v|", f.Name, v.Field(i).Interface())
	}
	return sb.String()
}

// The key spells every field kind it accepts, a Stringer and Inject
// included, byte for byte as fmt's %v did, so no memo key or run record
// changed when it moved to strconv.
func TestKeyMatchesFmt(t *testing.T) {
	type kinds struct {
		S      string
		B      bool
		I      int
		I8     int8
		I16    int16
		I32    int32
		I64    int64
		U      uint
		U8     uint8
		U16    uint16
		U32    uint32
		U64    uint64
		F32    float32
		F64    float64
		C      vm.CollectorKind
		Inject *failmap.Map
	}
	floats := []float64{0, math.Copysign(0, -1), 0.1, 1.0 / 3, 0.25, 2, 100, 123456789, 1e20, 1e21, 1e-4, 1e-5,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		f := floats[i%len(floats)]
		if i >= 2*len(floats) {
			f = math.Float64frombits(rng.Uint64())
		}
		k := kinds{
			S: string([]rune{rune(rng.Intn(0x2ff)), 'x', rune(rng.Intn(128))}), B: i%2 == 1,
			I: int(rng.Int63()) - int(rng.Int63()), I8: int8(rng.Int()), I16: int16(rng.Int()), I32: int32(rng.Int()),
			I64: int64(rng.Uint64()), U: uint(rng.Uint64()), U8: uint8(rng.Int()), U16: uint16(rng.Int()),
			U32: uint32(rng.Int()), U64: rng.Uint64(), F32: float32(f), F64: f, C: vm.CollectorKind(i % 6),
		}
		if i%3 == 0 {
			k.Inject = failmap.New(failmap.PageSize)
		}
		if got, want := canonicalKeyOf(k), fmtKey(k); got != want {
			t.Fatalf("key %q, fmt spelled it %q", got, want)
		}
	}
	for _, rc := range []RunConfig{{}, {Bench: "pmd", HeapMult: 1.5, Collector: vm.StickyImmix, LineSize: 128,
		FailureAware: true, FailureRate: 0.1, ClusterPages: 2, ClusterGran: 4096, Seed: -3, Mutators: 4,
		Inject: failmap.New(failmap.PageSize), InjectName: "tpl", Engine: "threaded", Policy: "rotate"}} {
		if got, want := canonicalKey(rc), fmtKey(rc); got != want {
			t.Fatalf("key %q, fmt spelled it %q", got, want)
		}
	}
}

// A key collision between any two distinct field assignments would also be
// aliasing; spot-check that values do not bleed across field boundaries.
func TestKeyFieldsDoNotAlias(t *testing.T) {
	a := canonicalKey(RunConfig{LineSize: 12, ClusterPages: 3})
	b := canonicalKey(RunConfig{LineSize: 1, ClusterPages: 23})
	if a == b {
		t.Fatal("field values bled across boundaries in the canonical key")
	}
}

// A future RunConfig field of a kind canonicalKey cannot encode must fail
// loudly at first use instead of being silently dropped from the key.
func TestKeyRejectsUnsupportedKinds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("canonicalKey must panic on a field kind it cannot encode")
		}
	}()
	type widened struct {
		Bench string
		Extra struct{ X int }
	}
	canonicalKeyOf(widened{Bench: "pmd"})
}

func TestRecordCarriesFullSnapshot(t *testing.T) {
	r := NewRunner()
	r.QuickDivisor = 40
	rc := RunConfig{Bench: "sunflow", HeapMult: 2, Collector: vm.StickyImmix, Seed: 1}
	rec := r.Record(rc)
	if rec.Schema != SchemaVersion {
		t.Fatalf("schema %d, want %d", rec.Schema, SchemaVersion)
	}
	if rec.Key != r.quicken(rc).key() {
		t.Fatalf("record key %q does not match the quickened config key", rec.Key)
	}
	if rec.Config.Bench != "sunflow" || rec.Config.Iterations == 0 {
		t.Fatalf("record config not quickened: %+v", rec.Config)
	}
	if len(rec.Result.Counters) != stats.NumEvents {
		t.Fatalf("snapshot has %d counters, want all %d events",
			len(rec.Result.Counters), stats.NumEvents)
	}
	// The snapshot must account for the whole clock under the default cost
	// table — this is what makes Explain's attribution exact.
	costs := stats.DefaultCosts()
	var sum stats.Cycles
	for i, c := range rec.Result.Counters {
		sum += stats.Cycles(c.Count) * costs[stats.Event(i)]
	}
	if sum != rec.Result.Cycles {
		t.Fatalf("counters x costs = %d, clock = %d", sum, rec.Result.Cycles)
	}
}

func TestExplainAttributesFullDelta(t *testing.T) {
	r := NewRunner()
	r.QuickDivisor = 40
	a := RunConfig{Bench: "pmd", HeapMult: 2, Collector: vm.StickyImmix,
		FailureAware: true, FailureRate: 0.25, ClusterPages: 2, Seed: 1}
	b := RunConfig{Bench: "pmd", HeapMult: 2, Collector: vm.StickyImmix, Seed: 1}
	rep := r.Explain(a, b)
	if len(rep.Tables) != 1 || len(rep.Tables[0].Rows) == 0 {
		t.Fatal("explain report empty")
	}
	if len(rep.Runs) != 2 {
		t.Fatalf("explain attached %d records, want 2", len(rep.Runs))
	}
	ra, rb := r.Record(a), r.Record(b)
	wantDelta := int64(ra.Result.Cycles) - int64(rb.Result.Cycles)
	var gotDelta int64
	var prevAbs int64 = -1
	for _, row := range rep.Tables[0].Rows {
		d := int64(row[4].Num)
		gotDelta += d
		abs := d
		if abs < 0 {
			abs = -abs
		}
		if prevAbs >= 0 && abs > prevAbs {
			t.Fatalf("rows not ranked by |Δcycles|: %d after %d", abs, prevAbs)
		}
		prevAbs = abs
	}
	if gotDelta != wantDelta {
		t.Fatalf("per-event deltas sum to %d, want the full cycle delta %d", gotDelta, wantDelta)
	}
}
