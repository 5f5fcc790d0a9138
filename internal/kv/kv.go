// Package kv implements the long-running wear-aware key-value server
// scenario: a hash table living entirely on the simulated heap, driven by
// a zipf-popular key stream with a tunable read/write ratio, value-size
// distribution, cross-mutator contention and phase changes. It runs as a
// workload scenario Profile on both execution engines — deterministic and
// byte-identical per seed on the baton engine, genuinely parallel on the
// threaded one — and records per-operation latency (with GC-pause and
// allocation-stall attribution) into the harness's latency pipeline.
//
// The paper evaluates failure-tolerant Immix on throughput benchmarks;
// this scenario asks the serving-system question instead: what do memory
// failures, failure-buffer backpressure and evacuating collections do to
// request tail latency.
package kv

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"

	"wearmem/internal/heap"
	"wearmem/internal/vm"
	"wearmem/internal/workload"
)

// Config parametrizes one KV scenario. The zero value of any field takes
// the documented default; Config values are canonically named by Name, so
// distinct configurations can never alias one benchmark name.
type Config struct {
	// Keys is the shared table's key-space size (default 2048). Each
	// mutator additionally owns a private table of Keys/4/mutators keys,
	// so the aggregate live set is roughly mutator-count invariant.
	Keys int
	// Zipf is the key-popularity skew s (rank r drawn with probability
	// proportional to 1/(r+1)^s; default 0.99, the YCSB-style hot-key
	// regime). Zero takes the default; the skew must be positive.
	Zipf float64
	// ReadRatio is the fraction of operations that are GETs (default
	// 0.75; the rest are PUTs, each allocating a fresh value).
	ReadRatio float64
	// ValueMin and ValueMax bound the uniform value-size distribution in
	// bytes (defaults 64 and 512).
	ValueMin, ValueMax int
	// Contention is the fraction of operations addressed to the shared
	// table; the rest hit the mutator's private table (default 0.25).
	// Under the threaded engine shared-table operations contend on
	// stripe locks; on the baton engine the knob only shifts which
	// structures the operations touch.
	Contention float64
	// Phases divides the run into popularity phases (default 4): each
	// phase rotates the hot key region by Keys/Phases and write-biases
	// every other phase, so the collector sees shifting survivors
	// instead of a stationary working set.
	Phases int
	// OpsPerIter is the number of operations per scenario iteration
	// (default 128) — the granularity of baton yields, safepoint hooks
	// and dynamic-failure injection.
	OpsPerIter int
	// Iterations is the default iteration count of a standard run
	// (default 1000).
	Iterations int
}

// Defaults mirror the field documentation.
const (
	defKeys       = 2048
	defZipf       = 0.99
	defReadRatio  = 0.75
	defValueMin   = 64
	defValueMax   = 512
	defContention = 0.25
	defPhases     = 4
	defOpsPerIter = 128
	defIterations = 1000
)

// withDefaults resolves zero fields to their defaults.
func (c Config) withDefaults() Config {
	if c.Keys == 0 {
		c.Keys = defKeys
	}
	if c.Zipf == 0 {
		c.Zipf = defZipf
	}
	if c.ReadRatio == 0 {
		c.ReadRatio = defReadRatio
	}
	if c.ValueMin == 0 {
		c.ValueMin = defValueMin
	}
	if c.ValueMax == 0 {
		c.ValueMax = defValueMax
	}
	if c.Contention == 0 {
		c.Contention = defContention
	}
	if c.Phases == 0 {
		c.Phases = defPhases
	}
	if c.OpsPerIter == 0 {
		c.OpsPerIter = defOpsPerIter
	}
	if c.Iterations == 0 {
		c.Iterations = defIterations
	}
	return c
}

// Name returns the canonical benchmark name of this configuration: "kv"
// for the all-defaults scenario, otherwise a knob-encoded name such as
// "kv[k=4096,z=1.2,rr=0.9,v=64-1024,c=0.5,p=8,o=128,i=1000]". Every knob
// participates, so the mapping from resolved Config to name is injective
// and memo keys built on benchmark names stay sound.
func (c Config) Name() string {
	c = c.withDefaults()
	if c == (Config{}.withDefaults()) {
		return "kv"
	}
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	return fmt.Sprintf("kv[k=%d,z=%s,rr=%s,v=%d-%d,c=%s,p=%d,o=%d,i=%d]",
		c.Keys, g(c.Zipf), g(c.ReadRatio), c.ValueMin, c.ValueMax,
		g(c.Contention), c.Phases, c.OpsPerIter, c.Iterations)
}

// Validate rejects configurations the scenario cannot run.
func (c Config) Validate() error {
	c = c.withDefaults()
	switch {
	case c.Keys < 64:
		return fmt.Errorf("kv: need at least 64 keys, got %d", c.Keys)
	case !(c.Zipf > 0): // NaN too: it would put every rank past the table
		return fmt.Errorf("kv: zipf skew %g is not positive", c.Zipf)
	case c.ReadRatio < 0 || c.ReadRatio > 1:
		return fmt.Errorf("kv: read ratio %g outside [0,1]", c.ReadRatio)
	case c.ValueMin < 8 || c.ValueMax < c.ValueMin || c.ValueMax-c.ValueMin >= math.MaxInt32:
		return fmt.Errorf("kv: bad value size range [%d,%d]", c.ValueMin, c.ValueMax)
	case c.Contention < 0 || c.Contention > 1:
		return fmt.Errorf("kv: contention %g outside [0,1]", c.Contention)
	case c.Phases < 1:
		return fmt.Errorf("kv: need at least one phase")
	case c.OpsPerIter < 1 || c.Iterations < 1:
		return fmt.Errorf("kv: need positive ops-per-iteration and iterations")
	}
	return nil
}

// minHeapEstimate sizes the scenario's minimum heap from its steady live
// set: the shared table at full occupancy (buckets, entries, values) plus
// the aggregate private tables (one quarter of the shared key space).
func (c Config) minHeapEstimate() int {
	avgVal := (c.ValueMin + c.ValueMax) / 2
	perKey := entrySize + 2*heap.WordSize + avgVal // entry + header slack + value
	live := c.Keys*heap.WordSize + c.Keys*perKey
	priv := c.Keys / 4
	live += priv*heap.WordSize + priv*perKey
	return live * 3 / 2
}

// registered guards against re-registering a knob-equal configuration:
// workload.RegisterExtra panics on duplicate names by contract, and the
// CLI may resolve the same -kv flags more than once.
var (
	regMu      sync.Mutex
	registered = map[string]bool{}
)

// Register validates the configuration, registers it as a workload extra
// under its canonical name (idempotently), and returns that name for use
// as a harness RunConfig.Bench.
func Register(c Config) (string, error) {
	c = c.withDefaults()
	if err := c.Validate(); err != nil {
		return "", err
	}
	name := c.Name()
	regMu.Lock()
	defer regMu.Unlock()
	if !registered[name] {
		workload.RegisterExtra(name, func() *workload.Profile { return newProfile(c, name) })
		registered[name] = true
	}
	return name, nil
}

// MustRegister is Register for known-good configurations.
func MustRegister(c Config) string {
	name, err := Register(c)
	if err != nil {
		panic(err)
	}
	return name
}

func init() {
	// The default scenario is always resolvable as plain "kv".
	MustRegister(Config{})
}

// The entry object: a chained hash-table node holding the key, the value
// reference and the next pointer. Offsets start past the object header.
const (
	entryNext = 8  // ref: next entry in the bucket chain
	entryVal  = 16 // ref: value byte array
	entryKey  = 24 // word: the key
	entrySize = 32
)

// stripes is the lock-stripe count for the shared table under the
// threaded engine. On the baton engine the locks are uncontended and
// cost nothing.
const stripes = 64

// scenario is the per-run state shared by all mutator bodies: the
// registered types, the shared table, its stripe locks, and the zipf
// rank CDF with its guide table. One scenario instance belongs to exactly
// one Profile instance, which the harness constructs fresh per run.
type scenario struct {
	cfg Config

	entryT *heap.Type
	bytesT *heap.Type
	refsT  *heap.Type

	// sharedBuckets is the shared table's bucket array, rooted on the VM
	// for the whole run (a moving collection updates the slot).
	sharedBuckets heap.Addr

	// locks stripe the shared table's buckets. INVARIANT: no allocation,
	// no safepoint poll and no baton yield may happen while holding a
	// stripe — an allocating holder could park waiting for a
	// stop-the-world that is itself waiting for the holder.
	locks [stripes]sync.Mutex

	// zipfCDF[r] is the cumulative probability of ranks 0..r, and
	// zipfGuide its guide table (see rank).
	zipfCDF   []float64
	zipfGuide []int32
}

// prepare runs once on the VM before mutator bodies start: register the
// object types, build the shared bucket array, precompute the zipf CDF and
// its guide table.
func (s *scenario) prepare(v *vm.VM) error {
	s.entryT = v.RegisterType(&heap.Type{
		Name: "kv.entry", Kind: heap.KindFixed, Size: entrySize,
		RefOffsets: []int{entryNext, entryVal},
	})
	s.bytesT = v.RegisterType(&heap.Type{Name: "kv.val", Kind: heap.KindScalarArray, ElemSize: 1})
	s.refsT = v.RegisterType(&heap.Type{Name: "kv.buckets", Kind: heap.KindRefArray})

	v.AddRoot(&s.sharedBuckets)
	b, err := v.NewArray(s.refsT, s.cfg.Keys)
	if err != nil {
		return err
	}
	s.sharedBuckets = b

	s.zipfCDF = zipfCDF(s.cfg.Keys, s.cfg.Zipf)
	s.zipfGuide = guideTable(s.zipfCDF)
	return nil
}

// zipfCDF returns the cumulative probabilities of ranks 0..keys-1 under
// skew z. The last is sum/sum, exactly 1.
func zipfCDF(keys int, z float64) []float64 {
	cdf := make([]float64, keys)
	sum := 0.0
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), z)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}

// guideTable returns cdf's guide table (Chen–Asau indexed search), one
// entry per CDF value: guide[j] is the rank sort.SearchFloat64s gives the
// first float64 u of bucket j, the u with int(u·len(cdf)) = j, or a u just
// below it.
func guideTable(cdf []float64) []int32 {
	guide := make([]int32, len(cdf))
	m := float64(len(cdf))
	for j := range guide {
		// j/m may round to a float past the bucket's first u: step down
		// while the float below is still in the bucket.
		u := float64(j) / m
		for u > 0 && int(math.Nextafter(u, 0)*m) >= j {
			u = math.Nextafter(u, 0)
		}
		guide[j] = int32(sort.SearchFloat64s(cdf, u))
	}
	return guide
}

// rank draws the popularity rank of u ∈ [0, 1): the smallest r with
// zipfCDF[r] ≥ u, which is what sort.SearchFloat64s(zipfCDF, u) returns.
// That rank never falls as u grows, and int(u·Keys) never falls either, so
// the guide entry of u's bucket is a lower bound, and a walk forward over
// the CDF, which ends at exactly 1, finishes the search. Buckets are equally
// likely and hold Keys CDF values among them, so a draw makes at most two
// comparisons on average.
func (s *scenario) rank(u float64) int {
	cdf := s.zipfCDF
	r := int(s.zipfGuide[int(u*float64(len(cdf)))])
	for cdf[r] < u {
		r++
	}
	return r
}

// newProfile builds the workload Profile driving this configuration.
func newProfile(c Config, name string) *workload.Profile {
	s := &scenario{cfg: c}
	p := &workload.Profile{
		Name:         name,
		Iterations:   c.Iterations,
		MinHeapBytes: c.minHeapEstimate(),
	}
	p.Prepare = s.prepare
	p.Body = func(api *vm.Mutator, mut, mutators, iterations int, yield func()) error {
		return s.body(p, api, mut, mutators, iterations, yield)
	}
	return p
}
