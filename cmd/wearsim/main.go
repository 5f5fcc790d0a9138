// Command wearsim is an interactive PCM device simulator: write traffic,
// watch lines wear out and fail, drain the failure buffer, inspect the
// failure map and the effect of clustering hardware.
//
// Commands (read from stdin):
//
//	write <line> [n]     write line n times (default 1)
//	hammer <n>           n writes of skewed traffic (90% to the hot quarter)
//	read <line>          read a line (exercises failure-buffer forwarding)
//	drain                drain one failure-buffer entry
//	map                  failure-map summary
//	page <p>             per-line state of page p
//	population <n> <w>   wear n fresh devices (seeds seed..seed+n-1) with w
//	                     hammer writes each, across -parallel workers
//	wear [n]             wear histogram across n write-count buckets
//	wearjson [n]         the same histogram as JSON (for plotting pipelines)
//	stats                device statistics
//	quit
//
// With -torture the simulator instead runs the deterministic
// fault-injection torture suite (internal/chaos) across every collector
// configuration and exits: nonzero when any campaign fails, printing the
// minimal reproducing seed and injection schedule.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"wearmem/internal/chaos"
	"wearmem/internal/failmap"
	"wearmem/internal/harness/cliconfig"
	_ "wearmem/internal/kv" // registers the kv scenario -torture-config names can carry
	"wearmem/internal/pcm"
	"wearmem/internal/seeded"
	"wearmem/internal/stats"
)

func main() {
	var (
		pages     = flag.Int("pages", 256, "module size in pages")
		endurance = flag.Uint64("endurance", 1000, "mean writes per line before failure")
		variation = flag.Float64("variation", 0.2, "endurance spread")
		cluster   = flag.Int("cluster", 0, "failure clustering region pages (0 = off; exclusive with -startgap)")
		leveling  = flag.Bool("startgap", false, "enable start-gap wear leveling (exclusive with -cluster)")
		seed      = flag.Int64("seed", 1, "seed")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "workers for the population command")

		prof cliconfig.Profiling

		torture       = flag.Bool("torture", false, "run the fault-injection torture suite and exit")
		seeds         = flag.Int("seeds", 50, "torture campaigns per configuration")
		tortureConfig = flag.String("torture-config", "", "space-separated configuration names to run, as campaign records name them, with * for any collector or mode (e.g. 'S-IX/aware/m4/thr */*/pol:rotate'); empty = every configuration of the sweep")
		tortureEvents = flag.Int("torture-events", 0, "injection events per campaign (0 = default)")
		tortureIters  = flag.Int("torture-iters", 0, "workload iterations per campaign (0 = default)")
		tortureBreak  = flag.String("torture-break", "", "plant a deliberate bug: smash-header or silent-taint (the suite must then fail)")
		tortureOut    = flag.String("torture-out", "", "write the torture or crash summary JSON to this file")
		tortureV      = flag.Bool("torture-v", false, "log each torture campaign to stderr")
		tortureSched  = flag.String("torture-schedule", "", "replay exactly this injection schedule (comma-separated point@N:action events) instead of generating campaigns — the format failure reproductions print; schedules containing a power-cut run the full crash pipeline")

		crash = flag.Bool("crash", false, "run the power-cut crash sweep (cut at every probe point on every crash configuration, then recover, verify and resume) and exit")
	)
	prof.Register(flag.CommandLine)
	flag.Parse()

	stop, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// exit stops the profiles first: os.Exit runs no deferred call.
	exit := func(code int) {
		stop()
		os.Exit(code)
	}

	if *crash || *torture {
		configs := chaos.AllConfigs()
		if *crash {
			configs = chaos.CrashConfigs()
		}
		if *tortureConfig != "" {
			var err error
			if configs, err = chaos.ParseConfigs(*tortureConfig); err != nil {
				fmt.Fprintln(os.Stderr, "wearsim:", err)
				exit(2)
			}
		}
		opt := chaos.Options{Seeds: *seeds, SeedBase: *seed, Events: *tortureEvents, Iters: *tortureIters,
			Break: *tortureBreak, Workers: *parallel, Configs: configs}
		switch {
		case *crash:
			exit(runCrash(opt, *tortureOut, *tortureV))
		case *tortureSched != "":
			exit(runReplay(opt, *tortureSched))
		}
		exit(runTorture(opt, *tortureOut, *tortureV))
	}
	defer stop()

	wl := pcm.NoWearLeveling
	if *leveling && *cluster > 0 {
		fmt.Fprintln(os.Stderr, "wearsim: -startgap and -cluster are exclusive: a device levels wear or clusters failures, not both")
		exit(2)
	} else if *leveling {
		wl = pcm.StartGap
	}
	run(os.Stdin, os.Stdout, pcm.Config{
		Size:         *pages * failmap.PageSize,
		Endurance:    *endurance,
		Variation:    *variation,
		ClusterPages: *cluster,
		WearLeveling: wl,
		GapInterval:  16,
		Seed:         *seed,
	}, *parallel)
}

// run is the interactive simulator: it builds the device cfg describes,
// reads commands from in until quit or end of input, and prints to out.
// The population command wears fresh devices of the same configuration
// across the given number of workers.
func run(in io.Reader, out io.Writer, cfg pcm.Config, workers int) {
	clock := stats.NewClock(stats.DefaultCosts())
	devCfg := cfg
	devCfg.TrackData = true
	dev := pcm.NewDevice(devCfg, clock)
	dev.OnFailure(func() { fmt.Fprintln(out, "  ! failure interrupt") })
	dev.OnBufferFull(func() { fmt.Fprintln(out, "  ! failure buffer watermark: writes stalled") })

	traffic := seeded.New(cfg.Seed)
	buf := make([]byte, failmap.LineSize)
	fmt.Fprintf(out, "wearsim: %d pages, endurance ~%d writes/line, clustering %dp, start-gap %v\n",
		cfg.Size/failmap.PageSize, cfg.Endurance, cfg.ClusterPages, cfg.WearLeveling == pcm.StartGap)

	sc := bufio.NewScanner(in)
	fmt.Fprint(out, "> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fmt.Fprint(out, "> ")
			continue
		}
		arg := func(i, def int) int {
			if len(fields) > i {
				if v, err := strconv.Atoi(fields[i]); err == nil {
					return v
				}
			}
			return def
		}
		switch fields[0] {
		case "write", "w":
			line := arg(1, 0)
			n := arg(2, 1)
			for i := 0; i < n; i++ {
				buf[0] = byte(i)
				if err := dev.Write(line, buf); err != nil {
					fmt.Fprintf(out, "  write stalled after %d writes: %v\n", i, err)
					break
				}
			}
			fmt.Fprintf(out, "  line %d: unavailable=%v\n", line, dev.Unavailable(line))
		case "hammer":
			n := arg(1, 10000)
			stalled := hammer(dev, traffic, buf, n)
			fmt.Fprintf(out, "  %d writes (%d stalled), %d lines failed (%.2f%%)\n",
				n, stalled, dev.FailedLines(), dev.FailureRate()*100)
		case "read", "r":
			line := arg(1, 0)
			data := make([]byte, failmap.LineSize)
			dev.Read(line, data)
			fmt.Fprintf(out, "  line %d data[0..8]=%x buffered=%d\n", line, data[:8], dev.BufferLen())
		case "drain":
			if rec, ok := dev.Drain(); ok {
				fmt.Fprintf(out, "  drained line %d fake=%v\n", rec.Line, rec.Fake)
			} else {
				fmt.Fprintln(out, "  buffer empty")
			}
		case "map":
			m := dev.FailMap()
			fmt.Fprintf(out, "  failed %d/%d lines (%.2f%%), perfect pages %d/%d, longest free run %d lines\n",
				m.FailedLines(), m.Lines(), m.Rate()*100, m.PerfectPages(), m.Pages(), m.LongestFreeRun())
		case "page":
			p := arg(1, 0)
			var sb strings.Builder
			for l := 0; l < failmap.LinesPerPage; l++ {
				if dev.Unavailable(p*failmap.LinesPerPage + l) {
					sb.WriteByte('X')
				} else {
					sb.WriteByte('.')
				}
			}
			fmt.Fprintf(out, "  page %4d |%s|\n", p, sb.String())
		case "population", "pop":
			n := arg(1, 8)
			writes := arg(2, 100000)
			if n < 1 || writes < 0 {
				fmt.Fprintln(out, "  usage: population <devices >= 1> <writes >= 0>")
				break
			}
			rs := wearPopulation(cfg, n, writes, workers)
			var worst, sum float64
			perfect := 0
			for i, pr := range rs {
				fmt.Fprintf(out, "  dev %3d seed %4d: %5d failed (%5.2f%%), perfect pages %3d, longest run %4d\n",
					i, cfg.Seed+int64(i), pr.failed, pr.rate*100, pr.perfectPages, pr.longestRun)
				sum += pr.rate
				if pr.rate > worst {
					worst = pr.rate
				}
				perfect += pr.perfectPages
			}
			fmt.Fprintf(out, "  population: mean failure %.2f%%, worst %.2f%%, mean perfect pages %.1f (%d workers)\n",
				sum/float64(n)*100, worst*100, float64(perfect)/float64(n), workers)
		case "wear":
			n := arg(1, 8)
			if n < 1 {
				n = 8
			}
			hist := dev.WearHistogram(n)
			maxSlots := 0
			for _, b := range hist {
				if b.Slots > maxSlots {
					maxSlots = b.Slots
				}
			}
			for _, b := range hist {
				bar := ""
				if maxSlots > 0 {
					bar = strings.Repeat("#", b.Slots*40/maxSlots)
				}
				fmt.Fprintf(out, "  [%7d,%7d) %6d slots %6d failed |%s\n",
					b.Lo, b.Hi, b.Slots, b.Failed, bar)
			}
			fmt.Fprintf(out, "  total writes %d across %d lines\n", dev.TotalWrites(), dev.Lines())
		case "wearjson":
			n := arg(1, 8)
			if n < 1 {
				n = 8
			}
			enc := json.NewEncoder(out)
			if err := enc.Encode(dev.WearHistogram(n)); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		case "stats":
			fmt.Fprintf(out, "  failed=%d (%.2f%%) buffered=%d stalled=%v gapCarries=%d simCycles=%d\n",
				dev.FailedLines(), dev.FailureRate()*100, dev.BufferLen(), dev.Stalled(),
				dev.GapCarries(), clock.Now())
		case "quit", "q", "exit":
			return
		default:
			fmt.Fprintln(out, "  commands: write|hammer|read|drain|map|page|population|wear|wearjson|stats|quit")
		}
		fmt.Fprint(out, "> ")
	}
}

// reproCommand renders a failing campaign as a complete copy-pasteable
// wearsim invocation: the configuration's name, the seed, the iteration
// count and the injection schedule. A minimized schedule replays where the
// shrink ran it, which for a threaded configuration is its baton twin (the
// same name without /thr); the full schedule replays on the configuration
// itself.
func reproCommand(cfg chaos.TortureConfig, seed int64, iters int, schedule, minimized []string) string {
	if minimized != nil {
		cfg.Threaded = false
		schedule = minimized
	}
	cmd := fmt.Sprintf("go run ./cmd/wearsim -torture -torture-config '%s'", cfg.Name())
	if iters > 0 {
		cmd += fmt.Sprintf(" -torture-iters %d", iters)
	}
	return cmd + fmt.Sprintf(" -seed %d -torture-schedule '%s'", seed, strings.Join(schedule, ","))
}

// runReplay replays one explicit injection schedule at seed opt.SeedBase on
// each of opt's configurations — the reproduction path the failure reports
// print. Schedules containing a power cut run the full crash pipeline (cut
// → recover → verify → resume).
func runReplay(opt chaos.Options, schedule string) int {
	var events []chaos.Event
	for _, s := range strings.Split(schedule, ",") {
		e, err := chaos.ParseEvent(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintln(os.Stderr, "torture:", err)
			return 2
		}
		events = append(events, e)
	}
	isCrash := false
	for _, e := range events {
		if e.Act == chaos.ActPowerCut {
			isCrash = true
		}
	}
	seed := opt.SeedBase
	failed := 0
	for _, cfg := range opt.Configs {
		camp := chaos.Campaign{Seed: seed, Events: events}
		var failure string
		var detail string
		if isCrash {
			rec := chaos.RunCrashCampaign(cfg, camp, opt)
			failure = rec.Failure
			switch {
			case rec.WornOut:
				detail = "worn out (graceful)"
			case !rec.CutFired:
				detail = "cut not reached"
			default:
				detail = fmt.Sprintf("cut at %s, rediscovered %d, resume GCs %d",
					rec.CutAt, rec.Rediscovered, rec.ResumeGCs)
			}
		} else {
			rec := chaos.RunCampaign(cfg, camp, opt)
			failure = rec.Failure
			detail = fmt.Sprintf("%d GCs, %d verifications", rec.GCs, rec.Verifications)
		}
		if failure != "" {
			failed++
			fmt.Printf("replay %-22s seed=%d FAIL\n  %s\n", cfg.Name(), seed, indent(failure))
		} else {
			fmt.Printf("replay %-22s seed=%d ok (%s)\n", cfg.Name(), seed, detail)
		}
	}
	if failed > 0 {
		fmt.Printf("replay: %d/%d configurations FAILED\n", failed, len(opt.Configs))
		return 1
	}
	return 0
}

// campaign is what the sweep reporter reads of one campaign record of
// either sweep.
type campaign struct {
	config, failure     string
	seed                int64
	cut                 string   // a crash campaign's power-cut event, as its FAIL line shows it
	fired               []string // injection effects a torture campaign logged
	schedule, minimized []string // the full schedule and, when a failure shrank, the minimized one
	counts              [2]int   // what it adds to its configuration's two tallies
}

// runSweep executes one campaign sweep and reports like a test driver:
// per-configuration tallies on stdout, failing campaigns with their minimal
// reproduction, the summary as JSON when asked for, exit status 1 on any
// failure. sweep runs the campaigns and returns the summary to persist, its
// records as the reporter reads them, and what to say when all passed;
// tallyLine formats a configuration's name, campaign count, two tallies and
// failure count.
func runSweep(name, tallyLine string, opt chaos.Options, outPath string, verbose bool,
	sweep func(chaos.Options) (summary any, records []campaign, passed string)) int {
	if verbose {
		opt.Logf = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	sum, records, passed := sweep(opt)

	byName := map[string]chaos.TortureConfig{}
	for _, cfg := range opt.Configs {
		byName[cfg.Name()] = cfg
	}
	type tally struct{ campaigns, failed, a, b int }
	perConfig := map[string]*tally{}
	var order []string
	failed := 0
	for _, r := range records {
		tl := perConfig[r.config]
		if tl == nil {
			tl = &tally{}
			perConfig[r.config] = tl
			order = append(order, r.config)
		}
		tl.campaigns++
		tl.a += r.counts[0]
		tl.b += r.counts[1]
		if r.failure != "" {
			tl.failed++
			failed++
		}
	}
	for _, cfg := range order {
		tl := perConfig[cfg]
		fmt.Printf(tallyLine, cfg, tl.campaigns, tl.a, tl.b, tl.failed)
	}

	for _, r := range records {
		if r.failure == "" {
			continue
		}
		fmt.Printf("\nFAIL %s seed=%d%s\n  %s\n", r.config, r.seed, r.cut, indent(r.failure))
		for _, f := range r.fired {
			fmt.Printf("  fired: %s\n", f)
		}
		fmt.Printf("  minimal reproduction:\n    %s\n",
			reproCommand(byName[r.config], r.seed, opt.Iters, r.schedule, r.minimized))
	}

	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		err = enc.Encode(sum)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	if failed > 0 {
		fmt.Printf("\n%s: %d/%d campaigns FAILED\n", name, failed, len(records))
		return 1
	}
	fmt.Println(passed)
	return 0
}

// runTorture executes the fault-injection campaign sweep over opt's
// configurations.
func runTorture(opt chaos.Options, outPath string, verbose bool) int {
	return runSweep("torture", "torture %-16s %3d campaigns  %5d GCs  %5d verifications  %d failed\n",
		opt, outPath, verbose, func(opt chaos.Options) (any, []campaign, string) {
			sum := chaos.Run(opt)
			var records []campaign
			for _, r := range sum.Records {
				records = append(records, campaign{config: r.Config, failure: r.Failure, seed: r.Seed,
					fired: r.Fired, schedule: r.Schedule, minimized: r.MinSchedule,
					counts: [2]int{r.GCs, r.Verifications}})
			}
			return sum, records, fmt.Sprintf("torture: all %d campaigns passed", sum.Campaigns)
		})
}

// runCrash executes the power-cut crash sweep: a cut at every registered
// probe point on each of opt's configurations (by default the crash
// configurations: both engines × write-through on/off), opt.Seeds campaigns
// each. Every campaign must end verifier-clean after its resumed workload,
// gracefully worn out, or with its cut unreached — anything else fails the
// sweep.
func runCrash(opt chaos.Options, outPath string, verbose bool) int {
	return runSweep("crash", "crash %-22s %3d campaigns  %3d cuts fired  %3d worn out  %d failed\n",
		opt, outPath, verbose, func(opt chaos.Options) (any, []campaign, string) {
			sum := chaos.CrashSweep(opt)
			var records []campaign
			for _, r := range sum.Records {
				c := campaign{config: r.Config, failure: r.Failure, seed: r.Seed, cut: " cut=" + r.Cut,
					schedule: r.Schedule, minimized: r.MinSchedule}
				if r.CutFired {
					c.counts[0] = 1
				}
				if r.WornOut {
					c.counts[1] = 1
				}
				records = append(records, c)
			}
			return sum, records, fmt.Sprintf("crash: all %d campaigns passed (%d cuts fired, %d worn out gracefully)",
				sum.Campaigns, sum.CutsFired, sum.WornOut)
		})
}

// indent keeps multi-line failure messages (panic stacks) readable in the
// report.
func indent(s string) string {
	return strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ")
}

type popResult struct {
	failed       int
	rate         float64
	perfectPages int
	longestRun   int
}

// hammer applies n writes of the skewed traffic (90% to the hot quarter)
// to dev and returns how many stalled, draining one failure-buffer entry
// after each of those. It draws no further than n lines from traffic, which
// carries over to the caller's next command.
func hammer(dev *pcm.Device, traffic *seeded.Stream, buf []byte, n int) (stalled int) {
	block := make([]int, 512)
	for i := 0; i < n; i += len(block) {
		run := block[:min(len(block), n-i)]
		dev.SkewedLines(traffic, run)
		for _, l := range run {
			if dev.Write(l, buf) != nil {
				stalled++
				dev.Drain()
			}
		}
	}
	return stalled
}

// wearPopulation wears n independent device instances with the hammer
// command's traffic, each seeded with cfg.Seed+index so the result for a
// given index is identical at any worker count; only the wall-clock
// depends on -parallel.
func wearPopulation(cfg pcm.Config, n, writes, workers int) []popResult {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	out := make([]popResult, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, failmap.LineSize)
			for i := range idx {
				c := cfg
				c.Seed = cfg.Seed + int64(i)
				dev := pcm.NewDevice(c, nil)
				hammer(dev, seeded.New(c.Seed), buf, writes)
				m := dev.FailMap()
				out[i] = popResult{
					failed:       dev.FailedLines(),
					rate:         dev.FailureRate(),
					perfectPages: m.PerfectPages(),
					longestRun:   m.LongestFreeRun(),
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}
