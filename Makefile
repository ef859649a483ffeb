# The CI gate. Every job in .github/workflows/ci.yml is a list of
# `make <target>` calls and nothing else, so this file is the single
# definition of what CI runs:
#   make ci        — everything CI runs, in the same order
#   make golden    — re-record golden_metrics.json after an intentional
#                    metric change (commit the diff)
GO ?= go

# Recipes that pipe into tee (bench, results) must fail when the producer
# fails, as they did when CI ran them directly under bash -eo pipefail.
SHELL := /bin/bash
.SHELLFLAGS := -eo pipefail -c

.PHONY: ci build vet fmt-check test race bench profile pairs size identical testtime check audit golden chaos trace place fuzz fuzz-native serve-smoke shard results

ci: build vet fmt-check test race bench check audit shard fuzz serve-smoke
	@echo "CI gate passed"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

# The bench/ harness is its own module importing this one: vetting and
# testing it here makes a changed exported signature fail the unit-test
# gate instead of silently breaking the benchmark.
test:
	$(GO) test -shuffle=on ./...
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# $(call race-run,<package>,<TestA|TestB>): exactly those tests under the race
# detector. `go test -run` with a stale name exits 0 having run nothing, so
# every alternative must first select a test the package still has.
define race-run
	@list=$$($(GO) test -list . $(1)); for t in $(subst |, ,$(2)); do \
		grep -q "^$$t" <<<"$$list" || { echo "make: -run '$$t' selects no test of $(1)" >&2; exit 1; }; \
	done
	$(GO) test -race $(1) -run '$(2)'
endef

# The race-detector row: telemetry registry, the placement control plane
# (ledger property + concurrency tests), the control-plane service (store
# recovery, reconciler), parallel-runner determinism. The partitioned-engine
# packages race under `make shard`, the fuzzer under `make fuzz`.
race:
	$(GO) test -race ./internal/telemetry
	$(GO) test -race ./internal/placement
	$(GO) test -race ./internal/ctlplane
	$(call race-run,./internal/experiments,TestParallelRunnerDeterminism|TestTelemetryParallelDeterminism|TestAuditParallelDeterminism)

# One pass over every testing.B benchmark in the tree (the per-figure
# evaluation + scheduler hot paths) into bench.txt. Measured performance
# with repetitions lives in bench/ (see bench/README.md).
bench:
	$(GO) test -bench=. -benchtime=1x -benchmem ./... | tee bench.txt

# Where a benchmark workload's CPU time and allocated bytes go: one
# full-scale repetition of workload W in a fresh process under the CPU and
# allocation profilers (the recipe of bench/README.md), then `pprof -top` of
# CPU, of every allocated byte, and of the job alone — on a sim workload the
# bytes under Engine.RunUntil, which is what job_alloc_mb counts there (the
# whole-process table is topped by set-up: AddVF, path enumeration), with
# the job's bytes per simulated event (the repetition is seed 1; its event
# count is pinned in bench/pinned.json), and its top 15 source lines by
# bytes (-lines: two sites in one function, say a buffer and a closure, are
# two rows). ctl_churn's job is a closed loop of HTTP decisions, of which
# the simulated quanta are a small part: it is split by layer instead
# (CTL_LAYERS: name; pprof -focus; -ignore), each layer with its bytes per
# decision (bench/workloads.go's full-scale Decisions, the run's
# ctlplane.decisions), and the top 15 lines are those of the decision path
# (the handlers and the engine goroutine's operations). Then
# set-up alone, what setup_s times: CPU and alloc_space under the harness's
# setupFabric / setupRPC and ctlplane.NewDaemon, with set-up bytes per
# VM-pair (SETUP_PAIRS: every fabric1k_* host sources one pair, every
# clos128_* host eight; ctl_churn's pairs arrive through admissions, not
# set-up). After the CPU table, one line gives the event queue's share of
# CPU: the samples under internal/sim's queue (its tiers and their heaps,
# QUEUE_FOCUS), nested calls counted once; N repetitions (-benchtime Nx,
# default 1) give that share more samples (the pprof tables sum the
# repetitions; the MiB, per-event, per-decision and per-pair lines are per
# repetition). The test binary and the profiles stay in a temp dir outside
# the tree for -list/-peek/-web:
#   make profile W=fabric1k_backlog [N=5]
# go test runs a benchmark once with b.N = 1 before it runs -benchtime Nx,
# so N > 1 repetitions profile N + 1.
REPS = $(if $(filter-out 1,$(or $(N),1)),$(shell echo $$(($(N) + 1))),1)
QUEUE_FOCUS = sim\.\(\*(queue|eventHeap)\)\.
SETUP_FOCUS = setupFabric$$|setupRPC$$|ctlplane\.NewDaemon$$
SETUP_PAIRS = $(if $(filter fabric1k_% clos128_%,$(W)),1024,0)
CTL_LAYERS = \
	'the bench client (ctlClient.post, its transport loops);ctlClient\)\.post$$|persistConn\)\.(readLoop|writeLoop)$$;' \
	'net/http server outside the handlers;net/http\.\(\*conn\)\.serve$$;Daemon\)\.Handler\.func' \
	'the handlers (body, Do, reply);Daemon\)\.Handler\.func;Daemon\)\.Loop$$' \
	'Service (engine goroutine, operations);Daemon\)\.Loop$$;RunUntil$$' \
	'the simulated quanta (Engine.RunUntil);RunUntil$$;' \
	'whole process;;'
CTL_PATH = Daemon\)\.Handler\.func|Daemon\)\.Loop$$
profile:
	@test -n "$(W)" || { echo "usage: make profile W=<workload>  (names: BENCHMARK.json)" >&2; exit 2; }
	@dir=$$(mktemp -d); \
	$(GO) test -C bench -run '^$$' -bench 'Workload/$(W)$$' -benchtime $(or $(N),1)x \
		-cpuprofile $$dir/cpu.prof -memprofile $$dir/mem.prof -memprofilerate 4096 \
		-o $$dir/bench.test; \
	$(GO) tool pprof -top -nodecount=25 $$dir/bench.test $$dir/cpu.prof; \
	$(GO) tool pprof -top -nodecount=100000 -nodefraction=0 -edgefraction=0 -focus='$(QUEUE_FOCUS)' $$dir/bench.test $$dir/cpu.prof 2>/dev/null | \
		awk '/Showing nodes accounting for/ { sub(/,$$/, "", $$5); sub(/%$$/, "", $$6); printf "event queue: %s %% of CPU (%s of %s)\n", $$6, $$5, $$8; exit }'; \
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=25 $$dir/bench.test $$dir/mem.prof; \
	if [ "$(W)" = ctl_churn ]; then \
	decisions=$$(awk '$$1 == "Decisions:" { sub(/,/, "", $$2); print $$2; exit }' bench/workloads.go); \
	echo; echo "== the job by layer: alloc_space, MiB and bytes per decision ($$decisions decisions, seed 1) =="; \
	for row in $(CTL_LAYERS); do \
		IFS=';' read -r name focus ignore <<<"$$row"; \
		b=$$($(GO) tool pprof -sample_index=alloc_space -top -nodecount=100000 -nodefraction=0 -edgefraction=0 -unit=B \
			$${focus:+-focus="$$focus"} $${ignore:+-ignore="$$ignore"} $$dir/bench.test $$dir/mem.prof 2>/dev/null | \
			awk '/Showing nodes accounting for/ { sub(/B,$$/, "", $$5); print $$5; exit }' || true); \
		awk -v n="$$name" -v b="$${b:-0}" -v d="$$decisions" -v r=$(REPS) 'BEGIN { printf "  %-55s %7.1f MiB %7.0f B/decision\n", n, b / r / 1048576, b / r / d }'; \
	done; \
	echo; echo "== the decision path by line: alloc_space under the handlers and the engine goroutine's operations, top 15 source lines =="; \
	$(GO) tool pprof -sample_index=alloc_space -focus='$(CTL_PATH)' -ignore='RunUntil$$' -lines -top -nodecount=15 $$dir/bench.test $$dir/mem.prof; \
	else \
	echo; echo "== the job alone: alloc_space under Engine.RunUntil =="; \
	$(GO) tool pprof -sample_index=alloc_space -focus=RunUntil -top -nodecount=25 $$dir/bench.test $$dir/mem.prof; \
	job=$$($(GO) tool pprof -sample_index=alloc_space -focus=RunUntil -top -cum -nodecount=1000 -unit=B $$dir/bench.test $$dir/mem.prof 2>/dev/null | \
		awk '$$NF ~ /Engine\)\.RunUntil$$/ { sub(/B$$/, "", $$4); print $$4; exit }'); \
	events=$$(awk -v w='"$(W)":' '$$1 == w { inw = 1 } inw && $$1 == "\"1\":" { in1 = 1 } in1 && $$1 == "\"events\":" { sub(/,/, "", $$2); print $$2; exit }' bench/pinned.json); \
	awk -v j="$$job" -v e="$$events" -v r=$(REPS) 'BEGIN { if (j > 0 && e > 0) printf "job: %.1f MiB under RunUntil over %d simulated events (seed 1) = %.1f bytes per event\n", j / r / 1048576, e, j / r / e }'; \
	echo; echo "== the job by line: alloc_space under Engine.RunUntil, top 15 source lines =="; \
	$(GO) tool pprof -sample_index=alloc_space -focus=RunUntil -lines -top -nodecount=15 $$dir/bench.test $$dir/mem.prof; \
	fi; \
	echo; echo "== set-up alone: CPU and alloc_space under setupFabric, setupRPC, ctlplane.NewDaemon =="; \
	$(GO) tool pprof -focus='$(SETUP_FOCUS)' -top -nodecount=25 $$dir/bench.test $$dir/cpu.prof; \
	$(GO) tool pprof -sample_index=alloc_space -focus='$(SETUP_FOCUS)' -top -nodecount=25 $$dir/bench.test $$dir/mem.prof; \
	setup=$$($(GO) tool pprof -sample_index=alloc_space -focus='$(SETUP_FOCUS)' -top -cum -nodecount=1000 -unit=B $$dir/bench.test $$dir/mem.prof 2>/dev/null | \
		awk '$$NF ~ /$(SETUP_FOCUS)/ { sub(/B$$/, "", $$4); s += $$4 } END { print s + 0 }'); \
	awk -v s="$$setup" -v p="$(SETUP_PAIRS)" -v r=$(REPS) 'BEGIN { s /= r; printf "set-up: %.1f MiB", s / 1048576; if (p > 0) printf " over %d VM-pairs = %.0f bytes per VM-pair", p, s / p; print "" }'; \
	echo "binary and profiles: $$dir"

# The paired comparison a performance change reports: N alternating runs of
# the benchmark driver contract on workload W, base ref BASE against the
# working tree, with medians, quartiles, wins and the gain / inside-the-bound
# / unresolved verdict per end-to-end metric (scripts/bench_pairs.sh):
#   make pairs BASE=HEAD~1 W=fabric1k_backlog
pairs:
	@test -n "$(BASE)" -a -n "$(W)" || { echo "usage: make pairs BASE=<ref> W=<workload> [N=10]  (names: BENCHMARK.json)" >&2; exit 2; }
	./scripts/bench_pairs.sh "$(BASE)" "$(W)" $(N)

# The size comparison a simplification reports, in the units ROADMAP aim 2
# scores by: per package under internal/ and cmd/, non-test code lines,
# exported identifiers and panic( sites, and with BASE the delta against
# that ref, and the package count (scripts/size.sh):
#   make size BASE=HEAD~1
size:
	./scripts/size.sh $(BASE)

# The behavioural comparison a refactor reports: ufabsim built from BASE and
# from the tree must produce byte-identical report text, registry snapshots,
# CSV curves, audit findings and traces, with 0 and with 4 workers
# (scripts/identical.sh):
#   make identical BASE=HEAD~1
identical:
	@test -n "$(BASE)" || { echo "usage: make identical BASE=<ref>" >&2; exit 2; }
	./scripts/identical.sh "$(BASE)"

# The tier-1 wall-time comparison a test-suite change reports: `go test
# -count=1 -json ./...` on the tree and on BASE, alternating, ROUNDS times,
# with per-package wall per round and each side's 15 slowest tests
# (scripts/testtime.sh):
#   make testtime BASE=HEAD~1
testtime:
	ROUNDS=$(ROUNDS) ./scripts/testtime.sh $(BASE)

# The full-scale evaluation transcript (every experiment's report text).
# Generated, not committed — regenerate after metric-affecting changes.
results:
	$(GO) run ./cmd/ufabsim run all | tee full_results.txt

# The golden gate runs twice, both with zero workers (`make shard` is the
# 4-worker twin): instrumentation must never change results.
check:
	$(GO) run ./cmd/ufabsim check
	$(GO) run ./cmd/ufabsim check -telemetry

# The audit gate: every fault-free run must audit clean, chaos scenarios
# must produce their declared excused findings, and auditing must not
# change a single golden metric. Findings land in findings.jsonl.
audit:
	$(GO) run ./cmd/ufabsim -quick -findings findings.jsonl audit all
	$(GO) run ./cmd/ufabsim check -audit

# The worker-count gate: the whole evaluation replayed at -shards 4 must
# reproduce exactly the golden numbers zero workers (the shards inline, as
# `make check` runs them) recorded. Workers have something to execute where
# a fabric deploys more than one logical shard — today fig11 (testbed, 2
# pods), fig17 and shardsim (Clos); fig4/12/16 run on a star (one shard,
# always inline) and the deployPlain experiments on a plain engine, so their
# rows hold by construction. Shard identity, live shard-ring subscribers, the
# pod partitioner and the conservative-lookahead engine run under the race
# detector.
shard:
	$(GO) run ./cmd/ufabsim check -shards 4
	$(GO) run ./cmd/ufabsim check -telemetry -shards 4
	$(call race-run,./internal/experiments,TestShardIdentity|TestShardedSubscribeLive)
	$(GO) test -race ./internal/sim ./internal/topo ./internal/dataplane

golden:
	$(GO) run ./cmd/ufabsim check -update

# The fault-injection suite (internal/chaos) at full scale.
chaos:
	$(GO) run ./cmd/ufabsim run flap gray restart churn chaoslab

# The control-plane suite (internal/placement) at full scale.
place:
	$(GO) run ./cmd/ufabsim run placecmp placechurn placesweep

# The control-plane service smoke gate, exactly as the CI ctlplane job
# runs it: start the daemon with a persistent store and background churn,
# drive admit/evaluate/release/findings over HTTP, SIGKILL it mid-churn,
# restart from the store and assert recovery.
serve-smoke:
	./scripts/serve_smoke.sh

# The scenario-fuzzer smoke gate, exactly as the CI fuzz-smoke job runs
# it: package tests under the race detector (oracle, shrinker, regression
# corpus), then a fixed-seed sweep that also replays the committed corpus.
# Every replay is differential: zero workers against 4.
# For a long randomized hunt use the nightly knobs, e.g.:
#   go run ./cmd/ufabsim fuzz -seeds 1000 -seed0 $$RANDOM -budget 20m -shrink -out fuzz-failures
fuzz:
	$(GO) test -race ./internal/fuzz
	$(GO) run ./cmd/ufabsim fuzz -seeds 50 -corpus internal/fuzz/testdata/regressions

# The native fuzz targets actually fuzzing (tier-1 only replays their seeds),
# FUZZTIME each, one after another. `go test -list '^Fuzz'` lists a package's
# targets; a target named here that the package no longer has fails, as a
# stale race-run name does, instead of fuzzing nothing. The minimize bound
# keeps a large seed (FuzzAdmitRequest's 2 MiB body) from eating the budget.
# A crasher lands in the package's testdata/fuzz/<target>/ — commit it with
# the fix and tier-1 replays it from then on:
#   make fuzz-native [FUZZTIME=2m]
FUZZTIME ?= 2m
FUZZ_TARGETS := ./internal/fuzz:FuzzParseCase ./internal/ctlplane:FuzzAdmitRequest \
	./internal/ctlplane:FuzzStoreOpen ./internal/probe:FuzzProbeWire ./internal/chaos:FuzzParseScenario \
	./internal/telemetry:FuzzRecorderRoundTrip

fuzz-native:
	@for pt in $(FUZZ_TARGETS); do \
		pkg=$${pt%%:*}; target=$${pt#*:}; \
		list=$$($(GO) test -list '^Fuzz' $$pkg); \
		grep -qx "$$target" <<<"$$list" || { echo "make: -fuzz '$$target' selects no target of $$pkg" >&2; exit 1; }; \
		echo "== $$pkg $$target ($(FUZZTIME))"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 5s || exit 1; \
	done

# Flight-recorder sample: the chaoslab run's event stream as JSONL, and
# the same run's causal spans as Chrome trace-event JSON (open
# trace_perfetto.json in https://ui.perfetto.dev or chrome://tracing).
trace:
	$(GO) run ./cmd/ufabsim -quick trace chaoslab > trace.jsonl
	@wc -l < trace.jsonl | xargs -I{} echo "{} events in trace.jsonl"
	$(GO) run ./cmd/ufabsim -quick trace -format perfetto chaoslab > trace_perfetto.json
	@wc -c < trace_perfetto.json | xargs -I{} echo "{} bytes in trace_perfetto.json"
