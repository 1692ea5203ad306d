GO ?= go

.PHONY: all build vet test race check alloc-check perf-check lint bench bench-json fault-smoke trace-smoke bench-smoke cloudblock-smoke fleet-smoke alert-smoke explain-smoke smoke clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the full gate CI runs: build, vet, tests with the race
# detector, the allocation gates, and the benchmark module.
check: build vet race alloc-check perf-check

# alloc-check runs the steady-state allocation gates on the build that
# ships, without the race instrumentation `race` runs them under: the
# cache's submit path, the closed-loop engine, the read-ahead hand-off,
# the k-way merge, the generator reader (trace.ItemReader, read by Next
# and by Fill), FileSource's decode of each trace format and the stream
# and CSV writers' Append must not allocate per record, and neither
# must the decision log's Recorder.Log into a file and a live tail.
alloc-check:
	$(GO) test -count=1 -run 'SteadyStateAllocs' ./internal/storage ./internal/replay ./internal/trace ./internal/obs

# perf-check vets and tests the benchmark module (perf/, its own Go
# module), which nothing else compiles: a change to the replay or fleet
# API would otherwise break the benchmark unnoticed.
perf-check:
	GOPROXY=off $(GO) -C perf vet . && $(GO) -C perf test -count=1 .

# lint fails on any file gofmt would rewrite, then runs the static
# analyzers CI installs on its runner. Locally those tools are optional:
# each is skipped with a notice when its binary is not on PATH (this
# repo never installs tools on your machine).
lint:
	@out=$$(gofmt -l *.go cmd examples internal perf); \
	if [ -n "$$out" ]; then echo "lint: gofmt needed on:"; echo "$$out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck ./..."; govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# bench runs the figure-regeneration suite once (see bench_test.go).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# bench-json regenerates every figure with the parallel scheduler and
# writes the per-figure numbers to a dated JSON file for diffing runs.
bench-json:
	$(GO) run ./cmd/esmbench -json BENCH_$$(date +%F).json

# fault-smoke mirrors the CI fault-injection step: the seeded-scenario
# reproducibility tests under the race detector, then a real faulted
# figure with the race runtime armed.
fault-smoke:
	$(GO) test -race -count=1 -run 'TestFaultedRunIsReproducible|TestDegradedModeFollowsFaultSchedule' ./internal/replay/
	$(GO) run -race ./cmd/esmbench -workload fileserver -fig 9 \
		-faults 'seed=42,spinup=0.2,io=0.005,battery=4m:8m'

# trace-smoke runs a small traced replay and validates the emitted
# Perfetto files through the in-repo validator (the CI contract:
# parses, holds spans, monotonic timestamps). It replays the same run
# a second time and requires every file to be byte-identical: the
# energy ledger's walk order, not a sort, fixes its float sums. It
# also renders `esmstat latency` and `esmstat attrib` of every file of
# both runs and requires the renders of the rerun to match, so the
# summary embedded in otherData is gated as esmstat reads it.
trace-smoke:
	rm -rf /tmp/esm-trace-smoke && mkdir -p /tmp/esm-trace-smoke/again
	$(GO) build -o /tmp/esm-trace-smoke/esmstat ./cmd/esmstat
	$(GO) run ./cmd/esmbench -workload fileserver -scale 0.1 -fig 8 \
		-trace /tmp/esm-trace-smoke/run.json
	$(GO) run ./cmd/esmbench -workload fileserver -scale 0.1 -fig 8 \
		-trace /tmp/esm-trace-smoke/again/run.json
	for f in /tmp/esm-trace-smoke/run-*.json; do \
		g=/tmp/esm-trace-smoke/again/$$(basename $$f); \
		echo "validating $$f"; \
		ESM_TRACE_FILE=$$f $(GO) test -run TestTraceSmoke -count=1 ./internal/obs/ || exit 1; \
		cmp $$f $$g || exit 1; \
		for cmd in latency attrib; do \
			/tmp/esm-trace-smoke/esmstat $$cmd $$f > $$f.$$cmd || exit 1; \
			/tmp/esm-trace-smoke/esmstat $$cmd $$g > $$g.$$cmd || exit 1; \
			cmp $$f.$$cmd $$g.$$cmd || exit 1; \
		done; \
	done

# bench-smoke is the CI regression gate: a short flight-recorded run of
# the file-server figure diffed against the committed baseline manifest
# with loose +/-25% thresholds (the replay is deterministic).
bench-smoke:
	rm -rf /tmp/esm-bench-smoke
	$(GO) run ./cmd/esmbench -workload fileserver -scale 0.1 -fig 8 \
		-series /tmp/esm-bench-smoke
	$(GO) run ./cmd/esmstat diff \
		-energy 0.25 -resp 0.25 -spinups 0.25 -migrations 0.25 \
		ci/baseline/BENCH_fileserver-esm.json \
		/tmp/esm-bench-smoke/BENCH_fileserver-esm.json

# cloudblock-smoke gates the multi-tenant cloud-block path end to end.
# tracegen streams the same seeded trace twice and the files must be
# byte-identical (the stream format is written straight off the lazy
# source — the trace is never materialized); esmreplay then decodes
# and replays it, open-loop and then closed-loop (10k volumes with
# churn: the closed loop's per-item cursors and batch pool at the
# shipped scale). The same trace written as CSV must replay open-loop
# to the same output, wall time aside: the CSV decodes record by
# record, the stream through the batched window, so a divergence
# between the two decoders fails here. esmstat -trace analyses the
# stream file (the
# README's tracegen -> esmstat -> esmreplay round trip); finally
# esmbench regenerates Fig. 20 with the flight recorder on, and the ESM
# manifest is diffed against the committed baseline (loose +/-25%
# thresholds).
cloudblock-smoke:
	rm -rf /tmp/esm-cloudblock-smoke
	mkdir -p /tmp/esm-cloudblock-smoke/serial
	$(GO) run ./cmd/tracegen -workload cloudblock -scale 0.02 -format stream \
		-out /tmp/esm-cloudblock-smoke/cb.trace \
		-catalog /tmp/esm-cloudblock-smoke/cb.items \
		-placement /tmp/esm-cloudblock-smoke/cb.layout
	$(GO) run ./cmd/tracegen -workload cloudblock -scale 0.02 -format stream \
		-out /tmp/esm-cloudblock-smoke/cb-again.trace \
		-catalog /tmp/esm-cloudblock-smoke/cb-again.items \
		-placement /tmp/esm-cloudblock-smoke/cb-again.layout
	cmp /tmp/esm-cloudblock-smoke/cb.trace /tmp/esm-cloudblock-smoke/cb-again.trace
	$(GO) run ./cmd/tracegen -workload cloudblock -scale 0.02 -format csv \
		-out /tmp/esm-cloudblock-smoke/cb.csv \
		-catalog /tmp/esm-cloudblock-smoke/cb-csv.items \
		-placement /tmp/esm-cloudblock-smoke/cb-csv.layout
	cmp /tmp/esm-cloudblock-smoke/cb.items /tmp/esm-cloudblock-smoke/cb-csv.items
	cmp /tmp/esm-cloudblock-smoke/cb.layout /tmp/esm-cloudblock-smoke/cb-csv.layout
	$(GO) run ./cmd/esmreplay -trace /tmp/esm-cloudblock-smoke/cb.trace \
		-catalog /tmp/esm-cloudblock-smoke/cb.items \
		-placement /tmp/esm-cloudblock-smoke/cb.layout -policy esm \
		> /tmp/esm-cloudblock-smoke/replay-stream.out
	cat /tmp/esm-cloudblock-smoke/replay-stream.out
	$(GO) run ./cmd/esmreplay -trace /tmp/esm-cloudblock-smoke/cb.csv \
		-catalog /tmp/esm-cloudblock-smoke/cb.items \
		-placement /tmp/esm-cloudblock-smoke/cb.layout -policy esm \
		> /tmp/esm-cloudblock-smoke/replay-csv.out
	sed 's/ in [^ ]* (wall)$$//' /tmp/esm-cloudblock-smoke/replay-stream.out > /tmp/esm-cloudblock-smoke/replay-stream.sim
	sed 's/ in [^ ]* (wall)$$//' /tmp/esm-cloudblock-smoke/replay-csv.out > /tmp/esm-cloudblock-smoke/replay-csv.sim
	cmp /tmp/esm-cloudblock-smoke/replay-stream.sim /tmp/esm-cloudblock-smoke/replay-csv.sim
	$(GO) run ./cmd/esmreplay -trace /tmp/esm-cloudblock-smoke/cb.trace \
		-catalog /tmp/esm-cloudblock-smoke/cb.items \
		-placement /tmp/esm-cloudblock-smoke/cb.layout -policy esm -closed-loop
	$(GO) run ./cmd/esmstat -trace /tmp/esm-cloudblock-smoke/cb.trace \
		-catalog /tmp/esm-cloudblock-smoke/cb.items
	$(GO) run ./cmd/esmbench -workload cloudblock -fig 20 \
		-series /tmp/esm-cloudblock-smoke/serial
	$(GO) run ./cmd/esmstat diff \
		-energy 0.25 -resp 0.25 -spinups 0.25 -migrations 0.25 \
		ci/baseline/BENCH_cloudblock-esm.json \
		/tmp/esm-cloudblock-smoke/serial/BENCH_cloudblock-esm.json

# fleet-smoke boots the multi-array control plane, streams two
# tracegen workloads into it over live NDJSON HTTP ingest, and gates
# on the roll-up conserving the summed per-array joules (esmstat fleet
# exits 1 on violation).
fleet-smoke:
	sh scripts/fleet-smoke.sh

# alert-smoke gates the SLO watchdog end to end. First, under the race
# detector: class_p* rules must fire off the policy's class counts
# (with and without a flight recorder), and the run's telemetry must
# reach a policy wrapped by an embedding decorator. Then esmd with a
# deliberately tight energy budget must leave `esmstat alerts <url>`
# exiting 1 once the rule fires; a budget far above the workload's
# total energy must leave it exiting 0 with the rule still evaluated.
alert-smoke:
	$(GO) test -race -count=1 -run 'TestClassCountRulesFire|TestTelemetryReachesWrappedPolicy' ./internal/replay/
	sh scripts/alert-smoke.sh

# explain-smoke gates the decision log and the root-cause pipeline: an
# injected spin-up-fault storm under a tight energy budget must yield an
# `esmstat explain` report naming the injected cause; the ESM run's
# decision log and report must be byte-identical across a rerun and the
# reports equal their pins; and a default-scale log must hold every
# record its manifest counts.
explain-smoke:
	sh scripts/explain-smoke.sh

# smoke chains every end-to-end smoke gate in one command — the full
# CI surface minus the unit/race suite (use `make check` for that).
smoke: fault-smoke trace-smoke bench-smoke cloudblock-smoke fleet-smoke alert-smoke explain-smoke

clean:
	$(GO) clean ./...
