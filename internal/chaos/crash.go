package chaos

import (
	"fmt"
	"slices"

	"wearmem/internal/probe"
	"wearmem/internal/sched"
	"wearmem/internal/vm"
)

// Crash campaigns extend the torture suite with unclean shutdowns: a
// schedule of ordinary injections wears the device, then an ActPowerCut
// event snapshots its durable state mid-operation and terminates the run.
// The driver restores the image, runs kernel recovery (drain → rescan →
// scrub → admit), cross-checks the recovered state against device ground
// truth, boots a fresh VM over the worn device and resumes a full workload
// under verification. Every campaign must end in one of exactly two
// acceptable states — verifier-clean after the resumed workload, or the
// typed ErrDeviceWornOut graceful degradation — and never a panic.

// CrashRecord is the outcome of one crash campaign.
type CrashRecord struct {
	Config   string   `json:"config"`
	Seed     int64    `json:"seed"`
	Schedule []string `json:"schedule"`
	// Cut is the power-cut event of the schedule, in reproduction syntax.
	Cut string `json:"cut"`
	// CutFired reports whether the cut point reached its Nth occurrence;
	// when false the campaign ran to completion uninterrupted (a vacuous
	// pass for that point).
	CutFired bool   `json:"cut_fired"`
	CutAt    string `json:"cut_at,omitempty"`
	// Recovery statistics (see kernel.RecoverStats).
	Orphans         int   `json:"orphans"`
	Rediscovered    int   `json:"rediscovered"`
	Scrubbed        int   `json:"scrubbed"`
	ScrubFailures   int   `json:"scrub_failures"`
	RecoveryRetries int   `json:"recovery_retries"`
	UsableFrames    int   `json:"usable_frames"`
	RecoveryCycles  int64 `json:"recovery_cycles"`
	// WornOut marks the graceful terminal state: recovery found the device
	// past usability and returned the typed ErrDeviceWornOut. Not a failure.
	WornOut       bool   `json:"worn_out,omitempty"`
	ResumeGCs     int    `json:"resume_gcs"`
	Verifications int    `json:"verifications"`
	Failure       string `json:"failure,omitempty"`
	// MinSchedule is the greedily shrunk schedule (the cut event always
	// kept) that still reproduces the failure; threaded shrinks run on the
	// baton twin when the failure reproduces there.
	MinSchedule []string `json:"min_schedule,omitempty"`
}

// CrashSummary aggregates a crash sweep, in a shape fit for a CI artifact.
type CrashSummary struct {
	Seeds     int           `json:"seeds"`
	Events    int           `json:"events"`
	Iters     int           `json:"iters"`
	Campaigns int           `json:"campaigns"`
	CutsFired int           `json:"cuts_fired"`
	WornOut   int           `json:"worn_out"`
	Failed    int           `json:"failed"`
	Records   []CrashRecord `json:"records"`
}

// Failures returns the failing records.
func (s *CrashSummary) Failures() []CrashRecord {
	var out []CrashRecord
	for _, r := range s.Records {
		if r.Failure != "" {
			out = append(out, r)
		}
	}
	return out
}

// RunCrashCampaign executes one crash campaign: the doomed run under the
// schedule's injections until the power cut fires, then restore → recover →
// verify → resume. The campaign fails on any pre-cut workload failure, a
// recovery error other than ErrDeviceWornOut, a recovered-state verifier
// finding, or any failure of the resumed workload. In a schedule with
// several power cuts the first is the campaign's; the others change nothing.
func RunCrashCampaign(cfg TortureConfig, camp Campaign, opt Options) CrashRecord {
	return crashRecord(cfg, camp, doomedPass(cfg, camp, opt)[0], opt)
}

// doomedPass runs camp's doomed workload once with every power cut of its
// schedule armed and returns what the run was at each, in schedule order;
// a schedule without a cut has one that never fires. On the baton engine
// the campaign of camp's other events and one of its cuts runs the same
// program as the pass up to that cut, because a cut that fires changes
// nothing the run goes on to do: a cut that fired holds its image and the
// verification count and failure of that instant, and one that never fired
// holds the whole pass's, as its own campaign would have run to completion.
// The pass stops once every cut has fired.
func doomedPass(cfg TortureConfig, camp Campaign, opt Options) []powerCut {
	doomed, in := runCampaignInner(cfg, camp, opt, nil, nil)
	if in == nil {
		in = NewInjector(camp, nil, nil, nil) // the run never started: no cut fired
	}
	cuts := in.cuts
	if len(cuts) == 0 {
		cuts = []powerCut{{}}
	}
	for i := range cuts {
		if cuts[i].image == nil {
			cuts[i].verifications, cuts[i].failure = doomed.Verifications, doomed.Failure
		}
	}
	return cuts
}

// crashRecord finishes crash campaign camp from what its doomed run was at
// its cut, one of camp's events. A failure before the cut fails the campaign and a cut that never
// fired leaves a vacuous pass. A fired cut's image is restored, the kernel
// recovered, the recovered state verified against device ground truth, and
// a fresh workload resumed over the worn device: the heap's contents died
// with the power — device-state recovery, not data recovery — so the
// resumed run rebuilds its structures from scratch on whatever working
// lines remain. No injections: the adversary already struck.
func crashRecord(cfg TortureConfig, camp Campaign, cut powerCut, opt Options) (rec CrashRecord) {
	rec = CrashRecord{Config: cfg.Name(), Seed: camp.Seed, Schedule: camp.Schedule(),
		Verifications: cut.verifications}
	if cut.Act == ActPowerCut {
		rec.Cut = cut.String()
	}
	defer func() {
		if p := recover(); p != nil {
			rec.Failure = fmt.Sprintf("panic: %v\n%s", p, sched.PanicStack(p))
		}
	}()
	if cut.failure != "" {
		rec.Failure = "pre-cut: " + cut.failure
		return rec
	}
	if cut.image == nil {
		return rec
	}
	rec.CutFired = true
	rec.CutAt = cut.Point.String()
	resumed, _ := runCampaignInner(cfg, Campaign{Seed: camp.Seed}, opt, cut.image, &rec)
	rec.Verifications += resumed.Verifications
	rec.ResumeGCs = resumed.GCs
	if rec.WornOut {
		return rec
	}
	if resumed.Failure != "" {
		rec.Failure = "post-recovery: " + resumed.Failure
	}
	return rec
}

// CrashConfigs is the crash sweep's configuration matrix: both engines ×
// write-through on/off, on the failure-aware sticky collector (the
// paper's headline configuration; recovery is engine- and write-mode-
// sensitive, not collector-sensitive).
func CrashConfigs() []TortureConfig {
	return []TortureConfig{
		{Collector: vm.StickyImmix, FailureAware: true},
		{Collector: vm.StickyImmix, FailureAware: true, NoWriteThrough: true},
		{Collector: vm.StickyImmix, FailureAware: true, Mutators: 4, Threaded: true},
		{Collector: vm.StickyImmix, FailureAware: true, Mutators: 4, Threaded: true, NoWriteThrough: true},
	}
}

// cutNth places the cut mid-window for the point, so it lands in the
// thick of the workload rather than at the first or last firing. Points
// outside the campaign window (the device-side interrupt points) cut at
// their first occurrence.
func cutNth(p probe.Point) int {
	n := nthRange[p] / 2
	if n < 1 {
		n = 1
	}
	return n
}

// CrashSweep cuts power at every registered probe point on every
// configuration of the matrix, opt.Seeds campaigns each: each campaign is
// a seed-derived injection preamble (wearing the device exactly like an
// ordinary torture campaign), the break mode's sabotage, and one power-cut
// event at the swept point. On the baton engine the campaigns of one
// configuration and seed differ only in their cut, so they share one
// doomed pass (doomedPass) with every point's cut armed; a threaded
// campaign is an independent sample of the schedule and runs its own.
// Failures shrink to minimal reproductions with the cut kept. Records come
// in configuration, point, seed order.
func CrashSweep(opt Options) *CrashSummary {
	if opt.Configs == nil {
		opt.Configs = CrashConfigs()
	}
	opt = opt.withDefaults()
	cuts := make([]Event, probe.NumPoints)
	for p := range cuts {
		cuts[p] = Event{Point: probe.Point(p), Nth: cutNth(probe.Point(p)), Act: ActPowerCut}
	}
	var jobs []job
	for _, cfg := range opt.Configs {
		for s := 0; s < opt.Seeds; s++ {
			pre := NewCampaign(opt.SeedBase+int64(s), opt.Events)
			pre.Events = append(pre.Events, breakEvents(opt.Break)...)
			if !cfg.Threaded {
				jobs = append(jobs, job{cfg, Campaign{Seed: pre.Seed, Events: slices.Concat(pre.Events, cuts)}})
				continue
			}
			for _, cut := range cuts {
				jobs = append(jobs, job{cfg, Campaign{Seed: pre.Seed, Events: slices.Concat(pre.Events, []Event{cut})}})
			}
		}
	}
	// A job's cuts close its schedule; each record's campaign is the rest
	// of the schedule and its own cut.
	passes := sweep(jobs, opt.Workers, func(j job) []CrashRecord {
		cuts := doomedPass(j.cfg, j.camp, opt)
		pre := j.camp.Events[:len(j.camp.Events)-len(cuts)]
		recs := make([]CrashRecord, len(cuts))
		for i, cut := range cuts {
			camp := Campaign{Seed: j.camp.Seed, Events: append(slices.Clip(pre), cut.Event)}
			rec := crashRecord(j.cfg, camp, cut, opt)
			cuts[i].image = nil // restored: free it before the next cut's resume
			if rec.Failure != "" && len(camp.Events) > 2 {
				if min, ok := shrink(j.cfg, camp, crashFails(opt), keepCut); ok {
					rec.MinSchedule = min.Schedule()
				}
			}
			if opt.Logf != nil {
				status := "ok"
				switch {
				case rec.Failure != "":
					status = "FAIL: " + rec.Failure
				case rec.WornOut:
					status = "worn out (graceful)"
				case !rec.CutFired:
					status = "cut not reached"
				}
				opt.Logf("crash %-22s seed=%-4d cut=%-24s rediscovered=%-4d resume-gcs=%-4d %s",
					rec.Config, rec.Seed, rec.Cut, rec.Rediscovered, rec.ResumeGCs, status)
			}
			recs[i] = rec
		}
		return recs
	})
	// The jobs come in configuration, seed, point order.
	flat, n := slices.Concat(passes...), len(cuts)
	sum := &CrashSummary{Seeds: opt.Seeds, Events: opt.Events, Iters: opt.Iters, Campaigns: len(flat)}
	for c := range opt.Configs {
		for p := range n {
			for s := range opt.Seeds {
				sum.Records = append(sum.Records, flat[(c*opt.Seeds+s)*n+p])
			}
		}
	}
	for _, r := range sum.Records {
		if r.CutFired {
			sum.CutsFired++
		}
		if r.WornOut {
			sum.WornOut++
		}
		if r.Failure != "" {
			sum.Failed++
		}
	}
	return sum
}

// crashFails is shrink's test for crash campaigns, and keepCut its rule
// that the power cut itself is never dropped.
func crashFails(opt Options) func(TortureConfig, Campaign) bool {
	return func(cfg TortureConfig, camp Campaign) bool { return RunCrashCampaign(cfg, camp, opt).Failure != "" }
}

func keepCut(e Event) bool { return e.Act == ActPowerCut }
