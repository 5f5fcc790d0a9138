// Package chaos is the deterministic fault-injection campaign scheduler of
// the torture-test subsystem. A Campaign is a seed plus a small schedule of
// events, each firing at the Nth occurrence of one instrumented phase
// boundary (internal/probe) — mid-trace, mid-evacuation, inside bump
// allocation, at nursery/full collection transitions — and performing an
// adversarial action there: failing the PCM line behind the address the
// runtime is touching, or filling the device failure buffer to its
// watermark so the next write-through exercises the drain-and-retry
// backpressure path.
//
// Everything is deterministic: the same (configuration, seed, schedule)
// replays the same execution, so a failing campaign is reproducible from
// the seed and schedule the torture driver prints, and shrinks by greedily
// dropping events (Minimize).
package chaos

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"wearmem/internal/failmap"
	"wearmem/internal/heap"
	"wearmem/internal/kernel"
	"wearmem/internal/pcm"
	"wearmem/internal/probe"
	"wearmem/internal/vm"
)

// Action is what an event does when it fires.
type Action uint8

const (
	// ActFailHere permanently fails the PCM line behind the address the
	// probe point reports (or the first root, for points without one),
	// driving the full device→buffer→interrupt→reverse-translation→up-call
	// pipeline at that exact instant.
	ActFailHere Action = iota
	// ActBufferStorm fills the failure buffer to its watermark with
	// failures on unmapped scratch lines while interrupt delivery is
	// detached, leaving the device stalled: the next write-through must
	// recover via the kernel's drain-and-retry path.
	ActBufferStorm
	// ActSilentTaint retires an empty Immix line behind the runtime's back
	// without telling the device or the OS — a planted inconsistency only
	// the verifier's kernel-table cross-check can see. Never generated by
	// NewCampaign; used by the negative-control break modes.
	ActSilentTaint
	// ActSmashHeader corrupts the header of the first rooted object — a
	// planted corruption the verifier's reachable-graph walk must catch.
	// Never generated by NewCampaign; used by the break modes.
	ActSmashHeader
	// ActPowerCut snapshots the device's durable state at this exact
	// instant — as a power failure would leave it, with the volatile
	// failure buffer lost. The run stops once every power cut of its
	// schedule has fired; until then it goes on as if nothing happened, so
	// one run serves every cut of a schedule. The crash-campaign driver
	// restores each image, runs kernel recovery and resumes a workload over
	// the worn device. Never generated by NewCampaign, so historical torture
	// schedules stay bit-identical; crash campaigns append it explicitly.
	ActPowerCut
)

var actionNames = map[Action]string{
	ActFailHere:    "fail-here",
	ActBufferStorm: "buffer-storm",
	ActSilentTaint: "silent-taint",
	ActSmashHeader: "smash-header",
	ActPowerCut:    "power-cut",
}

// String names the action for schedules.
func (a Action) String() string {
	if n, ok := actionNames[a]; ok {
		return n
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// ActionByName resolves a printed action name.
func ActionByName(name string) (Action, bool) {
	for a, n := range actionNames {
		if n == name {
			return a, true
		}
	}
	return 0, false
}

// Event is one scheduled injection: at the Nth firing of Point, do Act.
type Event struct {
	Point probe.Point
	Nth   int
	Act   Action
}

// String renders the event in the reproducible schedule syntax
// "point@N:action" that ParseEvent reads back.
func (e Event) String() string {
	return fmt.Sprintf("%s@%d:%s", e.Point, e.Nth, e.Act)
}

// ParseEvent parses the "point@N:action" schedule syntax.
func ParseEvent(s string) (Event, error) {
	at := strings.IndexByte(s, '@')
	colon := strings.LastIndexByte(s, ':')
	if at < 0 || colon < at {
		return Event{}, fmt.Errorf("chaos: bad event %q (want point@N:action)", s)
	}
	p, ok := probe.PointByName(s[:at])
	if !ok {
		return Event{}, fmt.Errorf("chaos: unknown probe point %q", s[:at])
	}
	n, err := strconv.Atoi(s[at+1 : colon])
	if err != nil || n < 1 {
		return Event{}, fmt.Errorf("chaos: bad occurrence count in %q", s)
	}
	a, ok := ActionByName(s[colon+1:])
	if !ok {
		return Event{}, fmt.Errorf("chaos: unknown action %q", s[colon+1:])
	}
	return Event{Point: p, Nth: n, Act: a}, nil
}

// Campaign is one reproducible torture schedule.
type Campaign struct {
	Seed   int64
	Events []Event
}

// nthRange is the occurrence window events target per point, roughly
// matched to how often each point fires in one torture workload so most
// events actually trigger.
var nthRange = map[probe.Point]int{
	probe.AllocBump:       1200,
	probe.AllocBlock:      48,
	probe.GCBegin:         24,
	probe.GCTraceMark:     4000,
	probe.GCEvacuate:      160,
	probe.GCSweepBlock:    400,
	probe.GCEnd:           24,
	probe.OSUpcall:        6,
	probe.GCMarkIncrement: 30,
	probe.PolicyRemap:     4,
}

// campaignPoints is the deterministic order candidate points are drawn in.
var campaignPoints = []probe.Point{
	probe.AllocBump, probe.AllocBlock, probe.GCBegin, probe.GCTraceMark,
	probe.GCEvacuate, probe.GCSweepBlock, probe.GCEnd, probe.OSUpcall,
}

// incrementalPoints extends campaignPoints with the increment boundary,
// which only fires when a pause budget splits marking into bounded
// increments: injections land mid-mark, with mutator state live between
// increments and the SATB window open. Kept separate so default campaign
// schedules are bit-identical to historical runs.
var incrementalPoints = append(append([]probe.Point{}, campaignPoints...),
	probe.GCMarkIncrement)

// policyPoints extends campaignPoints with the policy-remap boundary,
// which only fires under a non-stock frame policy: injections land right
// after a wear-triggered migration committed, while the freshly copied
// frame is live and its source just returned to the free pool. Kept
// separate so default campaign schedules are bit-identical to historical
// runs.
var policyPoints = append(append([]probe.Point{}, campaignPoints...),
	probe.PolicyRemap)

// NewCampaign derives a deterministic schedule of n events from the seed.
func NewCampaign(seed int64, n int) Campaign {
	return NewCampaignFrom(seed, n, campaignPoints)
}

// NewCampaignFrom derives a deterministic schedule of n events from the
// seed, drawing candidate points from the given list. The same (seed, n,
// points) always yields the same schedule.
func NewCampaignFrom(seed int64, n int, points []probe.Point) Campaign {
	rng := rand.New(rand.NewSource(seed))
	events := make([]Event, n)
	for i := range events {
		p := points[rng.Intn(len(points))]
		nth := 1 + rng.Intn(nthRange[p])
		act := ActFailHere
		if rng.Intn(4) == 0 {
			act = ActBufferStorm
		}
		events[i] = Event{Point: p, Nth: nth, Act: act}
	}
	return Campaign{Seed: seed, Events: events}
}

// Schedule renders the campaign's events in reproduction syntax.
func (c Campaign) Schedule() []string {
	out := make([]string, len(c.Events))
	for i, e := range c.Events {
		out[i] = e.String()
	}
	return out
}

// Fired records one event that actually triggered, with what it did.
type Fired struct {
	Event  Event
	Effect string
}

// Injector implements probe.Hook for one campaign run: it counts every
// probe point occurrence and performs the scheduled actions. One injector
// serves one run; it is not safe for reuse.
type Injector struct {
	dev  *pcm.Device
	kern *kernel.Kernel
	vm   *vm.VM

	pending []injEvent
	counts  [probe.NumPoints]int
	depth   int // >0 while performing an action: nested probe firings only count

	// Log holds the events that fired, in order.
	Log []Fired

	// cuts are the schedule's power cuts in schedule order, and fired how
	// many of them have fired. progress, when set, reports the run's
	// verification count and failure, which a cut records as it fires.
	cuts     []powerCut
	fired    int
	progress func() (verifications int, failure string)
}

type injEvent struct {
	Event
	done bool
}

// powerCut is one ActPowerCut of a schedule and, once it fired, the device
// image it took and the run's verification count and failure at that
// instant: all a crash record needs of the doomed run up to its cut.
type powerCut struct {
	Event
	image         *pcm.DeviceImage
	verifications int
	failure       string
}

// NewInjector builds the injector for one run over a booted machine's
// layers; install its Hook with machine.Machine.SetProbe.
func NewInjector(camp Campaign, dev *pcm.Device, kern *kernel.Kernel, v *vm.VM) *Injector {
	in := &Injector{dev: dev, kern: kern, vm: v}
	in.pending = make([]injEvent, len(camp.Events))
	for i, e := range camp.Events {
		in.pending[i] = injEvent{Event: e}
		if e.Act == ActPowerCut {
			in.cuts = append(in.cuts, powerCut{Event: e})
		}
	}
	return in
}

// powerGone reports whether every power cut of the schedule has fired:
// the run soft-stops, since nothing after the last cut is observable.
func (in *Injector) powerGone() bool {
	return len(in.cuts) > 0 && in.fired == len(in.cuts)
}

// Hook is the probe.Hook of this campaign: it counts the firing and
// performs the events it matched, in schedule order. Firings nested inside
// an action only count (matchOnly), so every action is atomic.
func (in *Injector) Hook(p probe.Point, addr uint64) {
	for _, e := range in.matchOnly(p) {
		in.depth++
		effect := in.perform(e, addr)
		in.depth--
		in.Log = append(in.Log, Fired{Event: e, Effect: effect})
	}
}

// matchOnly counts one probe firing and returns the events it matched
// without performing them. Hook performs them at once; the threaded
// engine's deferred-injection path serializes access (probes fire from many
// goroutines there) and performs them at the next mutator-quiescent instant.
func (in *Injector) matchOnly(p probe.Point) []Event {
	if p >= probe.NumPoints {
		return nil
	}
	in.counts[p]++
	if in.depth > 0 {
		return nil // firings nested inside an action only count
	}
	n := in.counts[p]
	var out []Event
	for i := range in.pending {
		e := &in.pending[i]
		if e.done || e.Point != p || e.Nth != n {
			continue
		}
		e.done = true
		out = append(out, e.Event)
	}
	return out
}

func (in *Injector) perform(e Event, addr uint64) string {
	switch e.Act {
	case ActFailHere:
		return in.failHere(e.Point, addr)
	case ActBufferStorm:
		return in.bufferStorm()
	case ActSilentTaint:
		return in.silentTaint()
	case ActSmashHeader:
		return in.smashHeader()
	case ActPowerCut:
		return in.powerCut(e)
	}
	return "unknown action"
}

// powerCut captures the device image at this instant for the first cut of
// the schedule that is e and has not fired. The snapshot takes only the
// device mutex, which no probe point fires under (interrupt callbacks are
// queued and delivered after unlock), so a cut is safe at every registered
// point; it changes nothing the run goes on to do.
func (in *Injector) powerCut(e Event) string {
	i := slices.IndexFunc(in.cuts, func(c powerCut) bool { return c.Event == e && c.image == nil })
	c := &in.cuts[i]
	c.image = in.dev.Snapshot()
	if in.progress != nil {
		c.verifications, c.failure = in.progress()
	}
	in.fired++
	return fmt.Sprintf("power cut at %s: %d lines failed, %d orphaned in buffer",
		e.Point, c.image.FailedLines, len(c.image.Orphans))
}

// targetAddr resolves the virtual address an injection should hit for the
// given probe point. Points that do not report a heap address fall back to
// the first live root.
func (in *Injector) targetAddr(p probe.Point, addr uint64) uint64 {
	switch p {
	case probe.GCBegin, probe.GCEnd, probe.GCMarkIncrement:
		// GCMarkIncrement reports the done flag, not an address: fail the
		// line behind the first root — mid-mark, with the window open.
		return in.firstRoot()
	case probe.PCMFailure, probe.PCMStallRetry:
		return 0 // addr is a module line, not a virtual address
	}
	return addr
}

func (in *Injector) firstRoot() uint64 {
	var t uint64
	if in.vm == nil {
		return 0
	}
	in.vm.Roots().Each(func(slot *heap.Addr) {
		if t == 0 && *slot != 0 {
			t = uint64(*slot)
		}
	})
	return t
}

// failHere fails the physical line behind the point's address with the
// line's current contents, exactly as if its last write had exhausted the
// line's error correction at this instant.
func (in *Injector) failHere(p probe.Point, addr uint64) string {
	vaddr := in.targetAddr(p, addr)
	if vaddr == 0 {
		return "skipped: no target address"
	}
	lineAddr := heap.Addr(vaddr) &^ heap.Addr(failmap.LineSize-1)
	frame, off, ok := in.kern.Translate(uint64(lineAddr))
	if !ok {
		return fmt.Sprintf("skipped: %#x unmapped", lineAddr)
	}
	if in.kern.FrameIsDRAM(frame) {
		return fmt.Sprintf("skipped: %#x on DRAM", lineAddr)
	}
	line := frame*failmap.LinesPerPage + off/failmap.LineSize
	var data []byte
	if in.vm != nil {
		data = in.vm.Model().S.Bytes(lineAddr, failmap.LineSize)
	}
	if !in.dev.ForceFail(line, data) {
		return fmt.Sprintf("skipped: line %d already unavailable", line)
	}
	return fmt.Sprintf("failed line %d behind %#x", line, lineAddr)
}

// bufferStorm force-fails unmapped scratch lines from the top of the
// module until the failure buffer stalls, with interrupt delivery detached
// so nothing drains; delivery is then re-attached and the device left
// stalled. The torture pool is sized so top-of-module frames are never
// mapped, making the storm pure buffer pressure.
func (in *Injector) bufferStorm() string {
	in.dev.OnFailure(nil)
	in.dev.OnBufferFull(nil)
	pushed := 0
	for line := in.dev.Lines() - 1; line >= 0 && !in.dev.Stalled(); line-- {
		if in.dev.ForceFail(line, nil) {
			pushed++
		}
	}
	k := in.kern
	in.dev.OnFailure(func() { k.ServiceDevice() })
	in.dev.OnBufferFull(func() { k.ServiceDevice() })
	return fmt.Sprintf("storm: %d scratch failures, buffer=%d/%d stalled=%v",
		pushed, in.dev.BufferLen(), in.dev.Watermark(), in.dev.Stalled())
}

// silentTaint retires one currently-free Immix line without informing the
// device or the kernel: the runtime's line state and the OS failure table
// now disagree, which only the verifier's kernel-table cross-check
// detects (negative-control break mode).
func (in *Injector) silentTaint() string {
	if in.vm == nil || in.vm.Immix() == nil {
		return "skipped: no Immix plan"
	}
	ix := in.vm.Immix()
	for _, v := range ix.BlockViews() {
		for l, s := range v.States {
			if s != '.' {
				continue
			}
			vaddr := heap.Addr(v.Base) + heap.Addr(l*v.LineSize)
			ix.HandleLineFailure(vaddr)
			return fmt.Sprintf("silently tainted free line at %#x", vaddr)
		}
	}
	return "skipped: no free line"
}

// smashHeader corrupts the header of the first rooted object with an
// unregistered type index (negative-control break mode: the verifier's
// graph walk must report it).
func (in *Injector) smashHeader() string {
	a := in.firstRoot()
	if a == 0 {
		return "skipped: no rooted object"
	}
	m := in.vm.Model()
	m.S.Store64(heap.Addr(a), uint64(0xBEEF)<<24|uint64(m.SizeOf(heap.Addr(a)))<<40)
	return fmt.Sprintf("smashed header of %#x", a)
}
