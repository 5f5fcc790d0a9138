GO ?= go

.PHONY: build test race race-threaded vet fmt digest loc bench bench-smoke bench-experiments perf perf-kv ledger-gate determinism torture torture-quick mutscale corescale-smoke check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# internal/chaos takes about seven minutes under the detector on a two-core
# host, too close to the default ten-minute package timeout.
race:
	$(GO) test -race -timeout 20m ./...

# Focused race pass over the threaded execution engine: real-goroutine
# mutators, concurrent trace/sweep, the engine differential, the threaded
# torture campaigns, the batch driver both engines share, the device's
# lock-free status reads and its page store (an image read with no lock
# while the device it was taken from keeps storing), the ownership rule (the
# lock type's own tests, the device's single-owner/equipped differential,
# the hammer on an equipped device, and the guards that a threaded boot
# equips the device it runs on), the engine seam and contract, the kernel's
# lock-free page-table walk, the address-space free list under eight
# workers, a panicking trace worker surfacing from the stop-the-world trace
# and the concurrent markers instead of hanging the others
# (TestThreadedWorkerPanicSurfaces), the blob-fill differential, whose
# threaded twins take the write-through lock once a line, and the runner's
# memo serving two spellings of one configuration from one flight
# (TestCanonicalAliasesSingleflight) (subset of "race"; faster signal).
race-threaded:
	$(GO) test -race -count=1 ./internal/vm/ ./internal/core/ ./internal/workload/ \
		./internal/chaos/ ./internal/harness/ ./internal/pcm/ ./internal/kernel/ \
		./internal/machine/ ./internal/sched/ . \
		-run 'Threaded|RunThreads|RunMutators|World|EngineDifferential|MultiMutator|LockFree|ConcurrentFailureInterrupts|Recycl|TestStore|SingleOwner|ConcurrentDevice|Equip|Lock|Seam|EngineContract|SetArrayBytes|Canonical'

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The "same behaviour" oracle: sha256 of the six deterministic report
# surfaces at seed 42, against the pinned values, then the pinned torture
# campaign records. A change that moves any of them changed simulated
# behaviour, not just code.
#   all        serial trace, every paper experiment
#   mutscale   lane trace: steals, work/crit cycles
#   pausecurve incremental marking state machine, pause histograms (the
#              threaded table is schedule-dependent and is cut first)
#   latency    baton KV latency quantiles
#   policyzoo  each frame policy's remaps, borrows, failed lines and tail
#              on the baton engine (the threaded table is cut, as above)
#   restart    power cut, recovery latency and post-recovery tail on the
#              baton engine (the threaded table is cut)
#   torture    baton campaign records (schedules, fired effects, GC and
#              verification counts): serial, 4 mutators, pause budget 10000;
#              and the baton crash sweep's records (one seed, every cut point)
digest:
	@$(GO) build -o .digest-wearbench ./cmd/wearbench
	@rc=0; check() { want=$$1; name=$$2; shift 2; \
		got=$$("$$@" | sha256sum | cut -d' ' -f1); \
		if [ "$$got" = "$$want" ]; then echo "digest $$name ok"; \
		else echo "digest $$name MOVED: got $$got want $$want"; rc=1; fi; }; \
	check 507aed0ecb6e669dce373c9a0a8de5ddadfe7fde247128ba9694d4f285e6d045 all \
		./.digest-wearbench -exp all -quick -seed 42 2>/dev/null; \
	check 60ff3970768ee787c493f5e331bf2a64951aa14be0c08514db1a848cda3a8bb8 mutscale \
		./.digest-wearbench -exp mutscale -quick -seed 42 2>/dev/null; \
	check 06316f6f2765f7b0a89f5fad52c9f94bc8cfb718f7620b2ae21834254f07e206 pausecurve \
		sh -c "./.digest-wearbench -exp pausecurve -quick -seed 42 2>/dev/null | sed '/(concurrent marking)/,\$$d'"; \
	check 133bbd4ae6bb1bd580f911ebca96ef3a2e74fca0fcb4c385b689e47bb82a9de0 latency \
		./.digest-wearbench -latency -quick -engine baton -seed 42 2>/dev/null; \
	check 7d6f3537d05ee400e303cc9564dd12de3c8e497c1796dbe88a88715ddd133e81 policyzoo \
		sh -c "./.digest-wearbench -exp policyzoo -quick -seed 42 2>/dev/null | sed '/(threaded engine/,\$$d'"; \
	check 48deb820dfcfa1ff1a0e52e624de973e3df1f031f2a15f26b373134a4e67a97f restart \
		sh -c "./.digest-wearbench -exp restart -quick -seed 42 2>/dev/null | sed '/(threaded engine/,\$$d'"; \
	if $(GO) test ./internal/chaos/ -run 'TestTortureRecordsPinned$$|TestCrashRecordsPinned$$' -count=1 >/dev/null; \
	then echo "digest torture ok"; \
	else echo "digest torture MOVED: $(GO) test ./internal/chaos/ -run 'TestTortureRecordsPinned|TestCrashRecordsPinned'"; rc=1; fi; \
	rm -f .digest-wearbench; exit $$rc

# The size a simplicity change is measured by: non-blank, non-comment lines
# of non-test Go, per internal package and in total. The total is internal/
# alone; the facade (the root package) and the CLIs are the two rows after
# it, so a change that moves wiring out of them shows too. With
# MAX_INTERNAL=n the rule exits 1 when the total is above n: CI passes the
# number the tree is at, so growth is an edit of that number and not drift.
loc:
	@count() { ls "$$@" | grep -v _test | xargs cat | grep -v '^\s*//' | grep -cv '^\s*$$'; }; \
	for d in $$(find internal -type d | sort); do \
		ls $$d/*.go >/dev/null 2>&1 || continue; \
		printf '%-28s %6d\n' $$d $$(count $$d/*.go); \
	done; \
	total=$$(count $$(find internal -name '*.go')); \
	printf '%-28s %6d\n' total $$total; \
	printf '%-28s %6d\n' '. (facade)' $$(count *.go); \
	printf '%-28s %6d\n' cmd $$(count $$(find cmd -name '*.go')); \
	if [ -n '$(MAX_INTERNAL)' ] && [ $$total -gt '$(MAX_INTERNAL)' ]; then \
		echo "loc: internal/ is at $$total lines, above MAX_INTERNAL=$(MAX_INTERNAL)"; exit 1; \
	fi

# Hot-path microbenchmarks: the collector's line bitsets against the retained
# []bool reference, what every simulator run pays around the simulation
# (drawing and clustering a failure map, encoding the OS table, building a
# block's line states from a map, the live-heap census), the two checks a
# torture campaign runs (the heap verifier at a collection, the recovered-state
# verifier after a power cut, both mid-campaign), the wear loop tab2 and
# examples/wearout spend most of their time in (drawing a block of skewed
# traffic, writing it, and the two together through a worn module), a kv
# request's popularity rank (the guide table against the binary search), and
# the collector's full-heap trace and sticky write barrier (the trace is 14-42%
# of host wall, DESIGN section 9).
bench:
	$(GO) test ./internal/core/ ./internal/failmap/ ./internal/verify/ ./internal/chaos/ ./internal/pcm/ ./internal/kv/ -run NONE \
		-bench 'FindHole|Sweep|AllocTight|NewBlock|GenerateUniform|ClusterHardware|EncodeRLE|Census|VerifyHeap|VerifyRecovered|SkewedLines|DeviceWriteRun|WearThrough|Rank|Trace|Barrier' -benchtime 1s

# One iteration of every benchmark in the tree: catches benchmarks that no
# longer compile or crash without paying for stable timings (CI smoke job).
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The performance ledger (bench/README.md): every workload untraced and
# traced, compared against bench/baseline.json. About four minutes.
perf:
	bash bench/run.sh

# One ledger workload, the way BENCHMARK.json runs it: perf-figs, perf-wearout,
# perf-kv-read, perf-kv-wear, perf-kv-threaded, perf-torture. The last stdout
# line is the result JSON; the command exits 1 when a report digest or pin
# moved ("correct":false).
perf-%:
	bash bench/run.sh --workload $* --seed 42 --seconds 12 --trace 0

# The name CI has for the baton engine's service workload.
perf-kv: perf-kv-read

# CI's reading of one perf-% run, piped in on stdin: the last line (the
# result JSON) must say "correct":true and report a peak_rss_mb no higher
# than MAX_RSS_MB. The ceilings CI passes, 60 for torture and 50 for kv-wear,
# hold on any host: they sit between what those workloads peak at with
# page-sparse line contents in internal/pcm (26-38 MB) and with dense ones
# (63-150 MB).
ledger-gate:
	@awk -v max='$(MAX_RSS_MB)' ' \
		{ line = $$0 } \
		END { \
			if (max == "") { print "ledger-gate: set MAX_RSS_MB"; exit 2 } \
			if (line !~ /"correct":true/) { print "ledger-gate: the result line does not say \"correct\":true"; exit 1 } \
			if (!match(line, /"peak_rss_mb":[{]"value":[0-9.]+/)) { print "ledger-gate: no peak_rss_mb in the result line"; exit 1 } \
			rss = substr(line, RSTART, RLENGTH); sub(/.*:/, "", rss); \
			if (rss + 0 > max + 0) { printf "ledger-gate: peak_rss_mb %.1f is above the %s MB ceiling\n", rss, max; exit 1 } \
			printf "ledger-gate: correct, peak_rss_mb %.1f within %s MB\n", rss, max \
		}'

# Full experiment benchmarks (quick configuration; takes minutes).
bench-experiments:
	$(GO) test -run NONE -bench . .

# Serial-vs-parallel byte-identity across every experiment in harness.All()
# (runs the whole suite twice; the default test checks a subset).
determinism:
	WEARMEM_FULL_DETERMINISM=1 $(GO) test ./internal/harness/ -run TestParallelReportsDeterministic -v

# Full fault-injection torture sweep: 50 seeds x 8 collector configurations,
# heap verified after every collection, then the same configurations with
# the workload split across 4 mutator contexts (context ownership verified
# at every block installation), the Immix kinds on the threaded engine, the
# pause-budgeted sticky collector, the same collector with concurrent markers
# on the threaded engine (write-through off, so the markers run against the
# mutators under injected failures, StrictSATB at every final mark), each
# non-stock frame policy, the power-cut crash sweep, and the crash sweep
# under the rotate policy, whose write path reads every page's wear. Writes
# the JSON summaries for CI.
torture:
	$(GO) run ./cmd/wearsim -torture -seeds 50 -torture-out torture-summary.json
	$(GO) run ./cmd/wearsim -torture -seeds 25 -torture-config '*/*/m4' -torture-out torture-summary-m4.json
	$(GO) run ./cmd/wearsim -torture -seeds 15 -torture-config 'IX/*/m4/thr S-IX/*/m4/thr' -torture-out torture-summary-thr.json
	$(GO) run ./cmd/wearsim -torture -seeds 25 -torture-config 'S-IX/*/inc10000' -torture-out torture-summary-inc.json
	$(GO) run ./cmd/wearsim -torture -seeds 15 -torture-config 'S-IX/*/m4/thr/inc10000/nowt' -torture-out torture-summary-conc.json
	$(GO) run ./cmd/wearsim -torture -seeds 15 -torture-config '*/*/pol:rotate' -torture-out torture-summary-rot.json
	$(GO) run ./cmd/wearsim -torture -seeds 8 -torture-config '*/*/pol:decoder' -torture-out torture-summary-dec.json
	$(GO) run ./cmd/wearsim -torture -seeds 8 -torture-config '*/*/pol:migrate' -torture-out torture-summary-mig.json
	$(GO) run ./cmd/wearsim -crash -seeds 3 -torture-out crash-summary.json
	$(GO) run ./cmd/wearsim -crash -seeds 2 -torture-config 'S-IX/aware/pol:rotate' -torture-out crash-summary-rot.json

# Multi-mutator scaling study (implementation experiment; excluded from
# "wearbench -exp all" so the pinned full-suite reports stay stable).
mutscale:
	$(GO) run ./cmd/wearbench -exp mutscale

# Quick pass of the core-scaling matrix: threaded-engine wall-clock across
# GOMAXPROCS x mutators x trace workers. Wall times are host-dependent; the
# JSON report carries honest machine metadata.
corescale-smoke:
	$(GO) run ./cmd/wearbench -exp corescale -quick

# One implementation study the way CI runs it: study-kvlat, study-pausecurve,
# study-restart, study-policyzoo. The experiment runs twice and its baton
# tables must be byte-identical across same-seed repeats (the incremental
# marking state machine, the power cut, the recovery and the policies are
# all on the deterministic surface); the threaded tables are honest
# concurrency and legitimately vary, so the text is cut at the first of them
# before the comparison. Then the study's JSON is recorded as
# results/<study>.json and, when checks/<study>.json exists, gated against
# its committed budgets (machine-class gated: skips on tiny hosts).
study-%:
	$(GO) run ./cmd/wearbench -exp $* -quick -seed 42 | sed '/threaded engine/,$$d' > .study-$*-a.txt
	$(GO) run ./cmd/wearbench -exp $* -quick -seed 42 | sed '/threaded engine/,$$d' > .study-$*-b.txt
	cmp .study-$*-a.txt .study-$*-b.txt
	@rm -f .study-$*-a.txt .study-$*-b.txt
	$(GO) run ./cmd/wearbench -exp $* -quick -seed 42 -format json > results/$*.json
	@if [ -f checks/$*.json ]; then $(GO) run ./cmd/wearcheck -spec checks/$*.json results/$*.json; fi

# Quick torture pass for CI under -race: the in-tree suite (positive sweep,
# determinism, planted-bug negative controls, shrinking, the crash-campaign
# power-cut sweep with device-image persistence and kernel recovery) plus
# the shadow randomized tests that drive the same verifier.
torture-quick:
	$(GO) test -race -timeout 20m ./internal/chaos/ ./internal/verify/ ./internal/core/ ./internal/pcm/ ./internal/kernel/ \
		-run 'Torture|Campaign|Break|Minimize|Event|Verify|Heap|Shadow|RandomizedGraph|Crash|Recover|Image|Snapshot'

check: build vet fmt test
