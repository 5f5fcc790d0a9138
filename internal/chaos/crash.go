package chaos

import (
	"fmt"
	"runtime/debug"

	"wearmem/internal/probe"
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
// finding, or any failure of the resumed workload.
func RunCrashCampaign(cfg TortureConfig, camp Campaign, opt Options) (rec CrashRecord) {
	opt = opt.withDefaults()
	rec = CrashRecord{Config: cfg.Name(), Seed: camp.Seed, Schedule: camp.Schedule()}
	for _, e := range camp.Events {
		if e.Act == ActPowerCut {
			rec.Cut = e.String()
		}
	}
	defer func() {
		if p := recover(); p != nil {
			rec.Failure = fmt.Sprintf("panic: %v\n%s", p, debug.Stack())
		}
	}()

	// Phase 1: the doomed run. Ends at the cut instant (sentinel failure),
	// at a genuine workload failure, or uninterrupted if the cut point
	// never reaches its Nth occurrence.
	doomed, in := runCampaignInner(cfg, camp, opt, nil, nil)
	rec.Verifications = doomed.Verifications
	if doomed.Failure != "" && doomed.Failure != powerCutFailure {
		rec.Failure = "pre-cut: " + doomed.Failure
		return rec
	}
	if in == nil || in.CutImage == nil {
		return rec
	}
	rec.CutFired = true
	rec.CutAt = in.CutAt.String()

	// Phases 2–4: restore the image, recover the kernel, verify the
	// recovered state, and resume a fresh workload over the worn device.
	// The heap's contents died with the power — device-state recovery, not
	// data recovery — so the resumed run rebuilds its structures from
	// scratch on whatever working lines remain. No injections: the
	// adversary already struck.
	resumed, _ := runCampaignInner(cfg, Campaign{Seed: camp.Seed}, opt, in.CutImage, &rec)
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
// ordinary torture campaign) plus one power-cut event at the swept point.
// Failures shrink to minimal reproductions with the cut kept.
func CrashSweep(opt Options) *CrashSummary {
	if opt.Configs == nil {
		opt.Configs = CrashConfigs()
	}
	opt = opt.withDefaults()
	var jobs []job
	for _, cfg := range opt.Configs {
		for p := probe.Point(0); p < probe.NumPoints; p++ {
			for s := 0; s < opt.Seeds; s++ {
				seed := opt.SeedBase + int64(s)
				camp := NewCampaign(seed, opt.Events)
				camp.Events = append(camp.Events, Event{Point: p, Nth: cutNth(p), Act: ActPowerCut})
				jobs = append(jobs, job{cfg, camp})
			}
		}
	}
	records := sweep(jobs, opt.Workers, func(j job) CrashRecord {
		rec := RunCrashCampaign(j.cfg, j.camp, opt)
		if rec.Failure != "" && len(j.camp.Events) > 2 {
			if min, ok := shrink(j.cfg, j.camp, crashFails(opt), keepCut); ok {
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
		return rec
	})
	sum := &CrashSummary{
		Seeds: opt.Seeds, Events: opt.Events, Iters: opt.Iters,
		Campaigns: len(records), Records: records,
	}
	for _, r := range records {
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

// MinimizeCrash greedily drops preamble events while the crash campaign
// still fails, never dropping the power cut itself.
func MinimizeCrash(cfg TortureConfig, camp Campaign, opt Options) Campaign {
	min, _ := shrink(cfg, camp, crashFails(opt), keepCut)
	return min
}
