package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"

	"wearmem/internal/failmap"
	"wearmem/internal/heap"
	"wearmem/internal/kernel"
	"wearmem/internal/machine"
	"wearmem/internal/pcm"
	"wearmem/internal/probe"
	"wearmem/internal/sched"
	"wearmem/internal/verify"
	"wearmem/internal/vm"
	"wearmem/internal/workload"
)

// TortureConfig is one runtime configuration under torture.
type TortureConfig struct {
	Collector    vm.CollectorKind
	FailureAware bool
	// Mutators splits the campaign workload across this many mutator
	// contexts on the deterministic baton scheduler (0 or 1 = the serial
	// workload). Multi-mutator campaigns additionally verify per-context
	// block ownership at every block installation.
	Mutators int
	// Threaded runs the campaign on the threaded engine: mutators on real
	// goroutines, parallel trace/sweep, failure injection under real
	// concurrency. Such campaigns are not deterministic — a failure's
	// schedule is minimized on the baton twin when it reproduces there.
	Threaded bool
	// Scenario, when non-empty, drives the named workload scenario profile
	// (e.g. the kv server, "kv") as the campaign workload instead of the
	// built-in chained mutator. The heap verifier still runs at every
	// collection boundary and the heap is sized to the scenario's minimum;
	// the built-in workload's host-side mirror cross-checks do not apply.
	Scenario string
	// PauseBudget bounds each GC marking pause to this many simulated
	// cycles (0 = stop-the-world collections). Requires a StickyImmix
	// collector. Campaigns for budgeted configurations draw injection
	// points from the extended list including the increment boundary
	// (gc.markincrement), so failures land mid-mark with the SATB window
	// open; StrictSATB tri-color verification is armed at every final mark.
	PauseBudget int
	// NoWriteThrough disables the write-through device (heap stores stop
	// propagating to PCM, so organic wear-out failures stop too; injected
	// failures still fire). The zero value keeps the historical
	// write-through torture device, so existing configuration names and
	// schedules are unchanged. Used by the power-cut crash sweep, which
	// exercises recovery with and without device-resident heap data.
	NoWriteThrough bool
	// Policy selects the kernel's frame policy (empty = the paper's stock
	// behavior, leaving names and schedules unchanged). Campaigns for
	// non-stock policies draw injection points from the extended list
	// including the remap boundary (policy-remap), so failures land right
	// after wear-triggered migrations commit.
	Policy string
}

// Name is the harness-style configuration label, e.g. "S-IX/aware" or
// "S-IX/aware/m4/thr".
func (c TortureConfig) Name() string {
	mode := "unaware"
	if c.FailureAware {
		mode = "aware"
	}
	name := c.Collector.String() + "/" + mode
	if c.Mutators > 1 {
		name += fmt.Sprintf("/m%d", c.Mutators)
	}
	if c.Threaded {
		name += "/thr"
	}
	if c.Scenario != "" {
		name += "/" + c.Scenario
	}
	if c.PauseBudget > 0 {
		name += fmt.Sprintf("/inc%d", c.PauseBudget)
	}
	if c.NoWriteThrough {
		name += "/nowt"
	}
	if c.Policy != "" && c.Policy != "paper" {
		name += "/pol:" + c.Policy
	}
	return name
}

// AllConfigs is every collector × failure-awareness combination.
func AllConfigs() []TortureConfig {
	kinds := []vm.CollectorKind{vm.Immix, vm.StickyImmix, vm.MarkSweep, vm.StickyMarkSweep}
	out := make([]TortureConfig, 0, 2*len(kinds))
	for _, k := range kinds {
		for _, aware := range []bool{true, false} {
			out = append(out, TortureConfig{Collector: k, FailureAware: aware})
		}
	}
	return out
}

// ParseConfigs is the inverse of Name: it reads a space-separated list of
// configuration names such as "S-IX/aware/m4/thr IX/*/kv/nowt". The
// collector and the mode may be "*", which expands in AllConfigs order.
// The modifiers after them are read by their shape (mN, thr, incN, nowt,
// pol:policy, else a scenario), and a name is accepted only if the
// configuration it reads as is named exactly that way, wildcards filled
// in: the one comparison refuses a modifier out of order, given twice or
// at its default (m1, inc0, pol:paper). The list is split on spaces because
// kv scenario names contain commas.
func ParseConfigs(s string) ([]TortureConfig, error) {
	var out []TortureConfig
	for _, name := range strings.Fields(s) {
		n := len(out)
		for _, c := range AllConfigs() {
			segs, base := strings.Split(name, "/"), strings.Split(c.Name(), "/")
			if len(segs) < 2 || (segs[0] != "*" && segs[0] != base[0]) || (segs[1] != "*" && segs[1] != base[1]) {
				continue
			}
			for _, m := range segs[2:] {
				c.setModifier(m)
			}
			copy(segs, base) // the wildcards filled in
			if c.Name() != strings.Join(segs, "/") {
				return nil, fmt.Errorf("chaos: configuration %q reads as %q", name, c.Name())
			}
			if err := c.runnable(); err != nil {
				return nil, fmt.Errorf("chaos: configuration %q: %v", name, err)
			}
			out = append(out, c)
		}
		if len(out) == n {
			return nil, fmt.Errorf("chaos: unknown configuration %q (want IX, S-IX, MS, S-MS or *, then /aware, /unaware or /*)", name)
		}
	}
	if out == nil {
		return nil, errors.New("chaos: no configuration named")
	}
	return out, nil
}

// setModifier sets what one modifier segment of a name, as Name writes
// it, says about c. Anything that is not another modifier is a scenario.
func (c *TortureConfig) setModifier(m string) {
	scan := func(format string, v any) bool { k, _ := fmt.Sscanf(m, format, v); return k == 1 }
	switch {
	case m == "thr":
		c.Threaded = true
	case m == "nowt":
		c.NoWriteThrough = true
	case scan("m%d", &c.Mutators), scan("inc%d", &c.PauseBudget), scan("pol:%s", &c.Policy):
	default:
		c.Scenario = m
	}
}

// runnable refuses a configuration no campaign can run: the threaded
// engine and bounded-pause marking on a collector vm.New rejects them on,
// a scenario or a policy nobody registered.
func (c TortureConfig) runnable() error {
	switch {
	case c.Threaded && c.Collector != vm.Immix && c.Collector != vm.StickyImmix:
		return errors.New("thr needs an Immix collector (IX or S-IX)")
	case c.PauseBudget > 0 && c.Collector != vm.StickyImmix:
		return errors.New("inc needs the S-IX collector")
	case c.Scenario != "":
		if p := workload.ByName(c.Scenario); p == nil || p.Body == nil {
			return fmt.Errorf("unknown scenario %q", c.Scenario)
		}
	}
	_, err := kernel.NewPolicy(c.Policy)
	return err
}

// Break modes plant a bug the campaign's verifier must catch; they exist to
// prove the torture suite can fail (a suite that cannot fail verifies
// nothing).
const (
	// BreakSmashHeader corrupts a rooted object header mid-run; the graph
	// walk must report it on every configuration.
	BreakSmashHeader = "smash-header"
	// BreakSilentTaint retires an Immix line without telling the OS; only
	// the kernel-table cross-check on failure-aware Immix configurations
	// can see it — and a verifier crippled with SkipKernelTable must not.
	BreakSilentTaint = "silent-taint"
)

// Options configures a torture run.
type Options struct {
	// Seeds is how many campaigns to run per configuration (default 8).
	Seeds int
	// SeedBase is the first campaign seed (default 1).
	SeedBase int64
	// Events is the schedule length per campaign (default 4).
	Events int
	// Iters is the workload length per campaign (default 2500).
	Iters int
	// Configs defaults to AllConfigs().
	Configs []TortureConfig
	// Break plants a deliberate bug (BreakSmashHeader or BreakSilentTaint);
	// empty runs the honest suite.
	Break string
	// SkipKernelTable cripples the verifier's kernel-table cross-check —
	// the negative control that must miss BreakSilentTaint.
	SkipKernelTable bool
	// Workers bounds campaign parallelism; 0 means GOMAXPROCS.
	Workers int
	// Logf, when set, receives one progress line per campaign.
	Logf func(format string, args ...interface{})
}

func (o Options) withDefaults() Options {
	if o.Seeds <= 0 {
		o.Seeds = 8
	}
	if o.SeedBase == 0 {
		o.SeedBase = 1
	}
	if o.Events <= 0 {
		o.Events = 4
	}
	if o.Iters <= 0 {
		o.Iters = 2500
	}
	if o.Configs == nil {
		o.Configs = AllConfigs()
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// CampaignRecord is the outcome of one campaign on one configuration.
type CampaignRecord struct {
	Config        string   `json:"config"`
	Seed          int64    `json:"seed"`
	Schedule      []string `json:"schedule"`
	Fired         []string `json:"fired,omitempty"`
	GCs           int      `json:"gcs"`
	Verifications int      `json:"verifications"`
	Failure       string   `json:"failure,omitempty"`
	// MinSchedule is the greedily shrunk schedule that still reproduces the
	// failure; replay it with the same configuration and seed. For threaded
	// configurations the shrink ran on the deterministic baton twin (same
	// configuration with Threaded off) and is replayable there; it is
	// absent when the failure did not reproduce on the twin.
	MinSchedule []string `json:"min_schedule,omitempty"`
}

// Summary aggregates a torture run, in a shape fit for a CI artifact.
type Summary struct {
	Seeds     int              `json:"seeds"`
	Events    int              `json:"events"`
	Iters     int              `json:"iters"`
	Break     string           `json:"break,omitempty"`
	Campaigns int              `json:"campaigns"`
	Failed    int              `json:"failed"`
	Records   []CampaignRecord `json:"records"`
}

// Failures returns the failing records.
func (s *Summary) Failures() []CampaignRecord {
	var out []CampaignRecord
	for _, r := range s.Records {
		if r.Failure != "" {
			out = append(out, r)
		}
	}
	return out
}

// job is one campaign of a sweep.
type job struct {
	cfg  TortureConfig
	camp Campaign
}

// sweep runs one on every job, at most workers at a time, and returns the
// results in job order.
func sweep[R any](jobs []job, workers int, one func(job) R) []R {
	out := make([]R, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, j := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			out[i] = one(j)
		}()
	}
	wg.Wait()
	return out
}

// Run executes Seeds campaigns on every configuration and shrinks the
// schedule of each failure to a minimal reproduction.
func Run(opt Options) *Summary {
	opt = opt.withDefaults()
	var jobs []job
	for _, cfg := range opt.Configs {
		points := campaignPoints
		if cfg.PauseBudget > 0 {
			// Budgeted configurations additionally target the increment
			// boundary, so injections land with the marking window open.
			points = incrementalPoints
		} else if cfg.Policy != "" && cfg.Policy != "paper" {
			// Non-stock policies additionally target the remap boundary,
			// so failures land right after migrations commit.
			points = policyPoints
		}
		for s := 0; s < opt.Seeds; s++ {
			seed := opt.SeedBase + int64(s)
			camp := NewCampaignFrom(seed, opt.Events, points)
			camp.Events = append(camp.Events, breakEvents(opt.Break)...)
			jobs = append(jobs, job{cfg, camp})
		}
	}
	records := sweep(jobs, opt.Workers, func(j job) CampaignRecord {
		rec := RunCampaign(j.cfg, j.camp, opt)
		if rec.Failure != "" && len(j.camp.Events) > 1 {
			if min, ok := shrink(j.cfg, j.camp, campaignFails(opt), nil); ok {
				rec.MinSchedule = min.Schedule()
			}
		}
		if opt.Logf != nil {
			status := "ok"
			if rec.Failure != "" {
				status = "FAIL: " + rec.Failure
			}
			opt.Logf("torture %-16s seed=%-4d gcs=%-4d verifies=%-4d %s",
				rec.Config, rec.Seed, rec.GCs, rec.Verifications, status)
		}
		return rec
	})
	sum := &Summary{
		Seeds: opt.Seeds, Events: opt.Events, Iters: opt.Iters,
		Break: opt.Break, Campaigns: len(records), Records: records,
	}
	for _, r := range records {
		if r.Failure != "" {
			sum.Failed++
		}
	}
	return sum
}

// breakEvents appends the sabotage of a break mode to a schedule.
func breakEvents(mode string) []Event {
	switch mode {
	case BreakSmashHeader:
		// Late enough that roots exist; the verifier runs at the same GCEnd
		// immediately after the injector smashes the header.
		return []Event{{Point: probe.GCEnd, Nth: 3, Act: ActSmashHeader}}
	case BreakSilentTaint:
		// At an allocation boundary (never mid-collection), so the taint
		// sits untouched until the next GCEnd verification.
		return []Event{{Point: probe.AllocBump, Nth: 300, Act: ActSilentTaint}}
	}
	return nil
}

// shrink greedily drops schedule events, except those keep protects, while
// fails still reports a failure, and returns the smallest schedule found.
// Threaded replays are nondeterministic, so shrinking there proves nothing:
// a threaded failure is shrunk on its baton twin (the same configuration
// with Threaded off) when it reproduces there deterministically; an
// engine-specific failure keeps its full schedule and shrink reports false.
func shrink(cfg TortureConfig, camp Campaign, fails func(TortureConfig, Campaign) bool, keep func(Event) bool) (Campaign, bool) {
	if cfg.Threaded {
		cfg.Threaded = false
		if !fails(cfg, camp) {
			return camp, false
		}
	}
	events := camp.Events
	for i := 0; i < len(events); {
		if keep != nil && keep(events[i]) {
			i++
			continue
		}
		trial := slices.Delete(slices.Clone(events), i, i+1)
		if fails(cfg, Campaign{Seed: camp.Seed, Events: trial}) {
			events = trial
		} else {
			i++
		}
	}
	return Campaign{Seed: camp.Seed, Events: events}, true
}

// campaignFails is shrink's test for torture campaigns.
func campaignFails(opt Options) func(TortureConfig, Campaign) bool {
	return func(cfg TortureConfig, camp Campaign) bool { return RunCampaign(cfg, camp, opt).Failure != "" }
}

// Sizing of one campaign: the PCM pool is 8x the heap so remapping always
// has perfect frames to draw on and buffer storms can burn top-of-module
// lines that no mapping ever touches.
const (
	tortureHeapBytes = 2 << 20
	torturePoolBytes = 16 << 20
	// tortureEndurance wears the hottest write-through lines into organic
	// dynamic failures within one campaign without collapsing the heap.
	tortureEndurance = 2048
	tortureVariation = 0.25
)

// campaignRun is the mutable state of one executing campaign.
type campaignRun struct {
	opt  Options
	cfg  TortureConfig
	camp Campaign

	v   *vm.VM
	in  *Injector
	rec *CampaignRecord

	// failMu guards rec.Failure on threaded campaigns, where mutator
	// goroutines and the collector report failures concurrently.
	failMu sync.Mutex
}

// powerCutFailure is the sentinel recorded when the last ActPowerCut of a
// schedule fires: the campaign soft-stops (power is gone). The crash-campaign
// driver, the only producer of power-cut schedules, reads each cut's outcome
// from the failure the cut recorded as it fired, never from the sentinel.
const powerCutFailure = "power cut"

// RunCampaign executes one campaign on one configuration: a deterministic
// mutator workload under the campaign's injections, with the full heap
// verifier run at every collection boundary. Any panic is captured as a
// campaign failure.
func RunCampaign(cfg TortureConfig, camp Campaign, opt Options) (rec CampaignRecord) {
	rec, _ = runCampaignInner(cfg, camp, opt, nil, nil)
	return rec
}

// runCampaignInner is RunCampaign also returning the campaign's injector,
// which the crash driver needs for the device image a power cut captured.
// When img is non-nil the run is a restart: the device is restored from the
// image instead of built fresh, kernel recovery runs before the VM boots
// (filling crash, when given, with its statistics), and the workload then
// resumes over the worn device. A recovery that ends in ErrDeviceWornOut is
// the graceful terminal state: crash.WornOut is set and the run stops
// without a failure.
func runCampaignInner(cfg TortureConfig, camp Campaign, opt Options,
	img *pcm.DeviceImage, crash *CrashRecord) (rec CampaignRecord, inj *Injector) {
	opt = opt.withDefaults()
	rec = CampaignRecord{Config: cfg.Name(), Seed: camp.Seed, Schedule: camp.Schedule()}
	defer func() {
		if p := recover(); p != nil {
			rec.Failure = fmt.Sprintf("panic: %v\n%s", p, sched.PanicStack(p))
		}
	}()

	// Scenario campaigns swap the built-in workload for a registered
	// scenario profile and size the heap to its declared minimum (the
	// built-in workload is tuned to tortureHeapBytes; scenarios declare
	// their own).
	var prof *workload.Profile
	heapBytes := tortureHeapBytes
	if cfg.Scenario != "" {
		prof = workload.ByName(cfg.Scenario)
		if prof == nil || prof.Body == nil {
			rec.Failure = fmt.Sprintf("unknown scenario profile %q", cfg.Scenario)
			return rec, nil
		}
		if hb := 2 * prof.MinHeap(); hb > heapBytes {
			heapBytes = hb
		}
	}

	m, err := bootCampaign(cfg, camp.Seed, heapBytes, img)
	if crash != nil && m != nil && m.Recovery != nil {
		st := m.Recovery
		crash.Orphans = st.Orphans
		crash.Rediscovered = st.Rediscovered
		crash.Scrubbed = st.Scrubbed
		crash.ScrubFailures = st.ScrubFailures
		crash.RecoveryRetries = st.Retries
		crash.UsableFrames = st.UsableFrames
		crash.RecoveryCycles = int64(st.Cycles)
	}
	if err != nil {
		if errors.Is(err, kernel.ErrDeviceWornOut) && crash != nil {
			crash.WornOut = true
		} else {
			rec.Failure = fmt.Sprintf("boot: %v", err)
		}
		return rec, nil
	}
	defer m.Close()
	if img != nil {
		// Cross-check the recovered state against device ground truth.
		if rep := verify.Recovered(verify.RecoveredTarget{
			Pool: m.Kernel, Scan: m.Device, Clusters: m.Device,
		}); !rep.Ok() {
			rec.Failure = fmt.Sprintf("recovered state: %v", rep.Err())
			return rec, nil
		}
		rec.Verifications++
	}
	in := NewInjector(camp, m.Device, m.Kernel, m.VM)
	inj = in

	run := &campaignRun{opt: opt, cfg: cfg, camp: camp, v: m.VM, in: in, rec: &rec}
	in.progress = run.progress
	if cfg.Threaded {
		m.SetProbe(run.threadedHook())
	} else {
		m.SetProbe(func(p probe.Point, addr uint64) {
			in.Hook(p, addr)
			if in.powerGone() {
				// The last power cut fired at this instant: soft-stop the
				// campaign. Nothing after it is observable, so no
				// verification.
				run.fail(powerCutFailure)
				return
			}
			if rec.Failure != "" {
				return
			}
			switch {
			case p == probe.GCEnd:
				run.verifyNow()
			case p == probe.AllocBlock && cfg.Mutators > 1:
				// A block was just handed to a context: the instant ownership
				// can go wrong. (GCEnd is too late — the sweep resets every
				// context, so the check would be vacuous there.)
				run.verifyContexts()
			}
		})
	}

	if prof != nil {
		run.workloadScenario(prof)
	} else {
		run.workload()
	}

	rec.GCs = m.VM.GCStats().Collections
	for _, f := range in.Log {
		rec.Fired = append(rec.Fired, f.Event.String()+" => "+f.Effect)
	}
	return rec, inj
}

// bootCampaign boots a campaign's probed machine: a torturePoolBytes wearing
// device seeded by the campaign, the kernel over it and a heapBytes runtime
// configured from cfg.
func bootCampaign(cfg TortureConfig, seed int64, heapBytes int, img *pcm.DeviceImage) (*machine.Machine, error) {
	return machine.Boot(machine.Spec{
		Kernel: kernel.Config{
			PCMPages: torturePoolBytes / failmap.PageSize,
			Policy:   cfg.Policy,
		},
		// A restart (img != nil) restores the device instead and rebuilds
		// the OS view of it — drain the torn orphans, rescan, scrub, admit —
		// before anything is mapped.
		Device: &pcm.Config{
			Endurance: tortureEndurance,
			Variation: tortureVariation,
			TrackData: true,
			Seed:      seed,
		},
		Image:     img,
		MinFrames: 2 * heapBytes / failmap.PageSize,
		Probe:     true,
		VM: vm.Config{
			HeapBytes:    heapBytes,
			Collector:    cfg.Collector,
			FailureAware: cfg.FailureAware,
			WriteThrough: !cfg.NoWriteThrough,
			StrictRemap:  true,
			Threaded:     cfg.Threaded,
			TraceWorkers: machine.ThreadedLanes(cfg.Threaded, cfg.Mutators),
			PauseBudget:  cfg.PauseBudget,
			StrictSATB:   cfg.PauseBudget > 0,
			// The workload's explicit collections come every ~40 KB of
			// allocation; a low trigger makes incremental cycles (and their
			// increment-boundary injection points) actually run between them.
			MarkTriggerBytes: 24 << 10,
		},
	})
}

func (r *campaignRun) fail(format string, args ...interface{}) {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	if r.rec.Failure == "" {
		r.rec.Failure = fmt.Sprintf(format, args...)
	}
}

// progress is the campaign's verification count and failure so far, which
// a power cut records as it fires.
func (r *campaignRun) progress() (int, string) {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	return r.rec.Verifications, r.rec.Failure
}

// failed reports whether the campaign has already failed; the threaded
// workload polls it from every mutator goroutine.
func (r *campaignRun) failed() bool {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	return r.rec.Failure != ""
}

// verifyNow runs the production heap verifier against the live runtime.
// Invariant families that are unsound at this instant are skipped: the
// kernel-table cross-check for failure-unaware plans (the OS legitimately
// re-hands released broken frames to them) and the failed-line and
// kernel-table checks while a failure batch is still pending retirement.
func (r *campaignRun) verifyNow() {
	r.rec.Verifications++
	if rep := verify.Heap(r.heapTarget()); !rep.Ok() {
		r.fail("%v", rep.Err())
	}
}

// heapTarget is the runtime state and the options verifyNow checks now.
func (r *campaignRun) heapTarget() (verify.Target, verify.Options) {
	t := verify.Target{
		Model:  r.v.Model(),
		Roots:  r.v.Roots(),
		Kernel: r.v.Kernel(),
		Device: r.v.Kernel().Device(),
		Policy: r.v.Kernel(),
	}
	if ix := r.v.Immix(); ix != nil {
		t.Views = ix.BlockViews()
		t.Large = ix.LargeObject
		t.Epoch = ix.Epoch()
	} else if ms, ok := r.v.Plan().(interface{ Epoch() uint16 }); ok {
		t.Epoch = ms.Epoch()
	}
	pending := r.v.PendingRecovery()
	return t, verify.Options{
		SkipKernelTable: !r.cfg.FailureAware || pending || r.opt.SkipKernelTable,
		SkipFailedLine:  pending,
	}
}

// verifyContexts runs the per-mutator ownership checker: no two contexts
// share a block, every cursor sits inside its own block's bounds.
func (r *campaignRun) verifyContexts() {
	ix := r.v.Immix()
	if ix == nil {
		return
	}
	r.rec.Verifications++
	if rep := verify.Mutators(ix.ContextViews()); !rep.Ok() {
		r.fail("%v", rep.Err())
	}
}

// Workload type shapes (offsets follow the VM test conventions).
const (
	wlNodeNext = 8
	wlNodeVal  = 16
	wlChains   = 32
	wlArrSlots = 8
	wlMaxDepth = 12
)

// tortureHeap is the torture workload's state: linked chains with
// host-side mirrors and pattern-stamped byte arrays in a rooted reference
// array. A split campaign partitions chains and slots round-robin; each
// mutator writes only its own share, host-side entries included, so they
// need no locks on either engine.
type tortureHeap struct {
	r                *campaignRun
	node, blob, refs *heap.Type

	heads   [wlChains]heap.Addr
	mirrors [wlChains][]uint64
	arr     heap.Addr
	arrLen  [wlArrSlots]int
	arrPat  [wlArrSlots]byte
	// Fill provenance per slot, for corruption diagnostics: the filling
	// iteration and the collection count at fill time.
	arrFillIter [wlArrSlots]int
	arrFillGC   [wlArrSlots]int
}

// workload is the mutator program driven under injection: chains, medium
// objects for overflow allocation, large objects for the LOS, occasional
// pins, and periodic explicit collections, every iteration cross-checking
// one chain and one slot against the host mirrors; divergence is a campaign
// failure. The serial campaign runs it on mutator 0, the VM's primary,
// outside any batch: a baton batch of one would cost a coroutine round trip
// per iteration for nothing. A split campaign (cfg.Mutators > 1, or the
// threaded engine) runs one share per mutator through vm.RunMutators —
// deterministic baton turns or real goroutines — each with its own rng
// stream and private Immix context, so injections land on whichever mutator
// is running when the probe fires, including one that is only traversing:
// the hole-tolerance property under test.
func (r *campaignRun) workload() {
	v := r.v
	h := &tortureHeap{
		r: r,
		node: v.RegisterType(&heap.Type{
			Name: "tnode", Kind: heap.KindFixed, Size: 24, RefOffsets: []int{wlNodeNext},
		}),
		blob: v.RegisterType(&heap.Type{Name: "tblob", Kind: heap.KindScalarArray, ElemSize: 1}),
		refs: v.RegisterType(&heap.Type{Name: "trefs", Kind: heap.KindRefArray}),
	}
	k := r.cfg.Mutators
	if k < 1 {
		k = 1
	}
	// The mutators' allocation-site registers are roots, and the trace
	// visits roots in registration order: attaching before the workload
	// roots is part of what a pinned campaign record depends on.
	m0 := v.Attach(k)[0]
	for i := range h.heads {
		v.AddRoot(&h.heads[i])
	}
	arr, err := v.NewArray(h.refs, wlArrSlots)
	if err != nil {
		r.fail("alloc ref array: %v", err)
		return
	}
	h.arr = arr
	v.AddRoot(&h.arr)

	if k > 1 || r.cfg.Threaded {
		err := v.RunMutators(k, func(m *vm.Mutator, yield func()) error {
			h.mutate(m, m.ID(), k, yield)
			return nil
		})
		if err != nil {
			r.fail("mutators: %v", err)
		}
	} else {
		h.mutate(m0, 0, 1, func() {})
	}

	if r.failed() {
		return
	}
	if v.OOM() {
		r.fail("heap exhausted (OOM) after %d GCs", v.GCStats().Collections)
		return
	}
	v.Collect(true)
	for c := 0; c < wlChains && !r.failed(); c++ {
		h.checkChain(m0, c)
	}
	for s := 0; s < wlArrSlots && !r.failed(); s++ {
		h.checkSlot(m0, s)
	}
	if !r.failed() {
		if err := v.Degraded(); err != nil {
			r.fail("runtime degraded: %v", err)
		}
	}
}

// mutate runs share mi of k of the campaign's iterations on mutator m,
// calling yield at the top of each.
func (h *tortureHeap) mutate(m *vm.Mutator, mi, k int, yield func()) {
	r, v := h.r, h.r.v
	var chains, slots []int
	for c := mi; c < wlChains; c += k {
		chains = append(chains, c)
	}
	for s := mi; s < wlArrSlots; s += k {
		slots = append(slots, s)
	}
	iters := workload.Share(r.opt.Iters, k, mi)
	rng := rand.New(rand.NewSource(r.camp.Seed*1000003 + 7 + 1009*int64(mi)))
	buf := make([]byte, 12000) // the share's fill buffer: every blob is a prefix
	for i := 0; i < iters && !r.failed() && !v.OOM(); i++ {
		yield()
		c := chains[rng.Intn(len(chains))]
		if len(h.mirrors[c]) > wlMaxDepth {
			h.heads[c] = 0 // whole chain becomes garbage
			h.mirrors[c] = nil
		}
		a, err := m.New(h.node)
		if err != nil {
			r.fail("mutator %d iter %d alloc node: %v", mi, i, err)
			break
		}
		val := rng.Uint64()
		m.WriteRef(a, wlNodeNext, h.heads[c])
		m.WriteWord(a, wlNodeVal, val)
		h.heads[c] = a
		h.mirrors[c] = append([]uint64{val}, h.mirrors[c]...)

		switch {
		case i%41 == 40: // large object space
			h.fillSlot(m, slots[rng.Intn(len(slots))], buf[:12000], i, rng)
		case i%23 == 22: // medium: overflow allocation on Immix
			h.fillSlot(m, slots[rng.Intn(len(slots))], buf[:600], i, rng)
		}
		if r.failed() {
			break
		}
		if i%97 == 96 {
			m.Pin(h.heads[c])
		}
		if i%113 == 112 {
			v.Collect(i%226 == 225)
		}
		if !h.checkChain(m, chains[rng.Intn(len(chains))]) ||
			!h.checkSlot(m, slots[rng.Intn(len(slots))]) {
			break
		}
		m.Work(5)
	}
}

func (h *tortureHeap) checkChain(m *vm.Mutator, c int) bool {
	r := h.r
	a := h.heads[c]
	for i, want := range h.mirrors[c] {
		if a == 0 {
			r.fail("chain %d truncated at %d/%d", c, i, len(h.mirrors[c]))
			return false
		}
		if got := m.ReadWord(a, wlNodeVal); got != want {
			r.fail("chain %d node %d: got %#x want %#x", c, i, got, want)
			return false
		}
		a = m.ReadRef(a, wlNodeNext)
	}
	if a != 0 {
		r.fail("chain %d longer than its mirror (%d)", c, len(h.mirrors[c]))
		return false
	}
	return true
}

func (h *tortureHeap) checkSlot(m *vm.Mutator, s int) bool {
	r, v := h.r, h.r.v
	if h.arrLen[s] == 0 {
		return true
	}
	ba := m.ArrayRef(h.arr, s)
	if ba == 0 {
		r.fail("array slot %d lost its blob", s)
		return false
	}
	for _, i := range []int{0, h.arrLen[s] / 2, h.arrLen[s] - 1} {
		if got, want := m.ArrayByte(ba, i), h.arrPat[s]+byte(i); got != want {
			// An intact but older blob here means a lost update, not memory
			// corruption; the provenance tells the two apart.
			md := v.Model()
			hdr := md.Header(ba)
			st := *v.GCStats()
			line := "no immix plan"
			if ix := v.Immix(); ix != nil {
				line = ix.DebugLineState(ba)
			}
			r.fail("array slot %d byte %d: got %#x want %#x "+
				"(blob %#x len %d hdr %#x epoch %d hdrsize %d modelLen %d; "+
				"filled iter %d gc %d; now gc %d evac %d dynfail %d; %s; data[:16]=%x)",
				s, i, got, want, ba, h.arrLen[s],
				hdr, heap.HeaderEpoch(hdr), heap.SizeFromHeader(hdr), md.ArrayLen(ba),
				h.arrFillIter[s], h.arrFillGC[s],
				st.Collections, st.ObjectsEvacuated, st.DynamicFailures,
				line, md.S.Bytes(ba+heap.ArrayHeaderSize, 16))
			return false
		}
	}
	return true
}

// fillSlot replaces array slot s with a fresh pattern-stamped blob of
// len(buf) bytes at iteration iter, recording the pattern in the host-side
// mirror. The pattern is staged in buf and stored with one SetArrayBytes.
// h.arr is re-read after the allocation, never captured before it:
// NewArray can trigger a collection that evacuates the ref array, and the
// collector fixes up registered roots only — an address held by value
// across the allocation would silently write the new blob into the dead
// old copy ("objects only move at allocation points" means exactly this
// re-read).
func (h *tortureHeap) fillSlot(m *vm.Mutator, s int, buf []byte, iter int, rng *rand.Rand) {
	h.arrFillIter[s], h.arrFillGC[s] = iter, h.r.v.GCStats().Collections
	n := len(buf)
	ba, err := m.NewArray(h.blob, n)
	if err != nil {
		h.r.fail("alloc blob[%d]: %v", n, err)
		return
	}
	pat := byte(rng.Intn(256))
	for i := range buf {
		buf[i] = pat + byte(i)
	}
	m.SetArrayBytes(ba, 0, buf)
	m.SetArrayRef(h.arr, s, ba)
	h.arrLen[s] = n
	h.arrPat[s] = pat
}
