# Developer entry points for the FastForward reproduction.
#
# `make check` is the pre-merge gate: the tier-1 flow (build + full test
# suite) plus `go vet`, the fflint domain analyzers (determinism, seed
# flow, dB-unit discipline, metric-name registry, and the daemon/fleet
# service discipline: lockscope, netdeadline, errflow, wirecodes — see
# DESIGN.md §7), the full test suite again under the race detector, a
# manifest smoke run of ffsim's figure families (see
# OBSERVABILITY.md), a byte-for-byte check of the examples' stdout, the
# fleet sweep smokes — local gates and the served wire mode against real
# ffrelayd subprocesses (DESIGN.md §11, OPERATIONS.md) — and bench-kit,
# which vets and tests the separate bench/ module against the internal
# packages it imports.

GO ?= go
SMOKE := .smoke

.PHONY: all build test vet lint race check bench bench-allocs bench-sessions bench-kit manifest-smoke daemon-smoke fleet-smoke fleet-served-smoke fuzz-smoke examples-smoke

all: check

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# The arm64 vet compiles the packages whose non-amd64 files the amd64
# build never sees (internal/dsp's Go-only kernel dispatch and its test
# helper), and the s390x vet compiles internal/relayd for a big-endian
# host, where its portable sample codec runs, so a break there fails
# here rather than on another architecture. The 386 vet compiles
# internal/rng where int is 32 bits, which its generator's tap and feed
# counters are, beside the seed's uint64 products.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/dsp ./internal/pipeline
	GOARCH=s390x $(GO) vet ./internal/relayd
	GOARCH=386 $(GO) vet ./internal/rng

# Domain-specific static analysis: detrand (no wall-clock or unseeded
# randomness in sweep-path packages), seedflow (worker rngs derive from
# rng.ItemSeed), dbunits (dB/linear naming discipline), obsmetrics
# (metric names match internal/obs/METRICS.txt, OBSERVABILITY.md, and
# the manifestcheck -require lists above), allocfree (no per-block
# allocation inside Process/ProcessInto bodies), lockscope (no blocking
# work or lock-order inversions while a mutex is held), netdeadline
# (conn I/O in internal/relayd is always deadline-armed), errflow (no
# dropped errors on protocol/admission/status paths), wirecodes
# (REFUSE/frame literals come from protocol.go, which cross-validates
# against OPERATIONS.md). Suppress a finding with
# `//fflint:allow <analyzer> <reason>` — the reason is mandatory, and
# the driver audits the allows themselves: stale, unknown-analyzer, or
# malformed ones are findings too. The binary is built once into
# bin/fflint so repeated lints (and CI) reuse the compile. Before the
# analyzers run, lint fails if gofmt -l lists any Go file of the root
# module or of bench/ (hidden build directories such as .bench_build are
# skipped), or if gofmt cannot parse one. gofmt is the one shipped with
# the toolchain $(GO) names, so the gate formats as the build does.
bin/fflint: $(shell find cmd/fflint internal/analysis -name '*.go' -not -path '*/testdata/*')
	$(GO) build -o bin/fflint ./cmd/fflint

lint: build bin/fflint
	@unformatted="$$(find . -name '*.go' -not -path './.*' | xargs "$$($(GO) env GOROOT)/bin/gofmt" -l)" || exit 1; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi
	./bin/fflint ./...

# Every tested package runs in full under the race detector, so a package
# that turns concurrent is covered without a list to keep. The slowest,
# internal/testbed, takes under three minutes on 2 vCPU.
race:
	$(GO) test -race ./...

check: test vet lint race manifest-smoke examples-smoke daemon-smoke fleet-smoke fleet-served-smoke bench-kit

# Run ffsim with -manifest on tiny configurations of its figure families
# (the Fig 12 sweep, the Fig 16 latency sweep, the Figs 1-2 maps, the
# Sec 3.3 cancellation stage and drift re-tuning, and the Fig 21 study)
# and validate the JSON it writes; the Fig 12 run additionally must
# report nonzero cancellation and amplification metrics (the
# OBSERVABILITY.md acceptance assertion), and its manifest metrics must
# be bit-identical between a serial and a 4-worker run. The stdout of the
# Fig 16, drift and staleness runs is compared byte for byte with
# cmd/ffsim/testdata/{fig16,drift,staleness}.txt; after an intended
# output change, re-record with the same flags.
# Both binaries are built once into $(SMOKE).
manifest-smoke: build
	rm -rf $(SMOKE) && mkdir -p $(SMOKE)
	$(GO) build -o $(SMOKE)/ffsim ./cmd/ffsim
	$(GO) build -o $(SMOKE)/manifestcheck ./cmd/manifestcheck
	$(SMOKE)/ffsim -fig 12 -grid 4 -stride 13 -workers 1 -manifest $(SMOKE)/ffsim.json > /dev/null
	$(SMOKE)/ffsim -fig 12 -grid 4 -stride 13 -workers 4 -manifest $(SMOKE)/ffsim-w4.json > /dev/null
	$(SMOKE)/manifestcheck -require sic.analog_db,sic.total_db,relay.amp_db,testbed.cells $(SMOKE)/ffsim.json
	$(SMOKE)/manifestcheck -diff $(SMOKE)/ffsim.json $(SMOKE)/ffsim-w4.json
	$(SMOKE)/ffsim -fig 16 -grid 4 -stride 13 -sic-trials 0 -manifest $(SMOKE)/fig16.json > $(SMOKE)/fig16.txt
	$(SMOKE)/manifestcheck -require pipeline.latency_samples,pipeline.budget_violations $(SMOKE)/fig16.json
	cmp $(SMOKE)/fig16.txt cmd/ffsim/testdata/fig16.txt
	$(SMOKE)/ffsim -fig 1 -grid 3 -sic-trials 0 -manifest $(SMOKE)/fig1.json > /dev/null
	$(SMOKE)/manifestcheck -require testbed.cells,relay.amp_db $(SMOKE)/fig1.json
	$(SMOKE)/ffsim -fig cancel -sic-trials 2 -manifest $(SMOKE)/cancel.json > /dev/null
	$(SMOKE)/manifestcheck -require sic.analog_db,sic.total_db,sic.tune_iterations $(SMOKE)/cancel.json
	$(SMOKE)/ffsim -fig drift -sic-trials 2 -manifest $(SMOKE)/drift.json > $(SMOKE)/drift.txt
	$(SMOKE)/manifestcheck -require sic.drift_achieved_db,sic.drift_erosion_db,sic.drift_intervals,sic.retunes,sic.effective_total_db $(SMOKE)/drift.json
	cmp $(SMOKE)/drift.txt cmd/ffsim/testdata/drift.txt
	$(SMOKE)/ffsim -fig staleness -sic-trials 0 > $(SMOKE)/staleness.txt
	cmp $(SMOKE)/staleness.txt cmd/ffsim/testdata/staleness.txt
	$(SMOKE)/ffsim -fig 21 -ident-locations 4 -ident-packets 50 -sic-trials 0 -manifest $(SMOKE)/fig21.json > /dev/null
	$(SMOKE)/manifestcheck -require ident.locations,ident.packets $(SMOKE)/fig21.json
	rm -rf $(SMOKE)

# Every examples/ program is deterministic: build each once into $(SMOKE),
# run it, and compare its stdout byte for byte with
# examples/testdata/<name>.txt. An example without a recording fails.
# After an intended output change, re-record with
#   go run ./examples/<name> > examples/testdata/<name>.txt
examples-smoke: build
	rm -rf $(SMOKE) && mkdir -p $(SMOKE)
	for m in examples/*/main.go; do \
		e=$$(basename $$(dirname $$m)); \
		$(GO) build -o $(SMOKE)/$$e ./examples/$$e && \
		$(SMOKE)/$$e > $(SMOKE)/$$e.txt && \
		cmp $(SMOKE)/$$e.txt examples/testdata/$$e.txt || exit 1; \
	done
	rm -rf $(SMOKE)

# End-to-end daemon check (see OPERATIONS.md): one process starts a real
# TCP ffrelayd, streams two concurrent bit-verified sessions, provokes a
# Sec 3.5 budget refusal, scrapes the status endpoint, drains cleanly,
# and writes a manifest whose relayd.* metrics must all be present, as
# must the pipeline.* counters of the blocks it served.
daemon-smoke: build
	rm -rf $(SMOKE) && mkdir -p $(SMOKE)
	$(GO) run ./cmd/ffrelayd -mode smoke -manifest $(SMOKE)/relayd.json
	$(GO) run ./cmd/manifestcheck -require relayd.sessions_admitted,relayd.sessions_completed,relayd.sessions_refused.budget,relayd.frames_in,relayd.frames_out,relayd.amp_granted_db,pipeline.blocks,pipeline.samples,pipeline.batch.sweeps,pipeline.batch.sessions,pipeline.soa_blocks $(SMOKE)/relayd.json
	rm -rf $(SMOKE)

# Fleet smoke (see DESIGN.md §11): a small relay-pool sweep with its
# forced degradation event must publish every fleet.* metric and be
# bit-identical between a serial and a 4-worker run. Seed 2 is a grid
# where every counter is naturally nonzero (refusals, spills,
# migrations, and strandings all occur), so -require can demand all 12.
fleet-smoke: build
	rm -rf $(SMOKE) && mkdir -p $(SMOKE)
	$(GO) run ./cmd/ffsim -fig fleet -fleet-relays 1,3 -fleet-clients 20,40 -workers 1 -sic-trials 0 -seed 2 -manifest $(SMOKE)/fleet.json > /dev/null
	$(GO) run ./cmd/ffsim -fig fleet -fleet-relays 1,3 -fleet-clients 20,40 -workers 4 -sic-trials 0 -seed 2 -manifest $(SMOKE)/fleet-w4.json > /dev/null
	$(GO) run ./cmd/manifestcheck -require fleet.cells,fleet.relays,fleet.clients,fleet.assigned,fleet.refused,fleet.spilled,fleet.migrations,fleet.stranded,fleet.amp_db,fleet.relay_sessions,fleet.aggregate_mbps,fleet.p99_client_mbps $(SMOKE)/fleet.json
	$(GO) run ./cmd/manifestcheck -diff $(SMOKE)/fleet.json $(SMOKE)/fleet-w4.json
	rm -rf $(SMOKE)

# Served fleet smoke (see OPERATIONS.md "Served fleet mode"): the same
# seeded grid as fleet-smoke, once against in-process gates and once
# against real ffrelayd subprocesses over loopback TCP, with a session
# cap that provokes genuine session_limit REFUSEs (so the wire's
# REFUSE → spill mapping is on the critical path). The wire run must
# publish every fleet.wire.* transport counter (io_errors excluded — it
# must stay zero and -require demands nonzero), and the two manifests
# must be bit-identical outside the fleet.wire. prefix.
fleet-served-smoke: build
	rm -rf $(SMOKE) && mkdir -p $(SMOKE)
	$(GO) build -o $(SMOKE)/ffrelayd ./cmd/ffrelayd
	$(GO) run ./cmd/ffsim -fig fleet -fleet-relays 1,3 -fleet-clients 20,40 -fleet-cap 8 -workers 4 -sic-trials 0 -seed 2 -manifest $(SMOKE)/fleet-local.json > /dev/null
	$(GO) run ./cmd/ffsim -fig fleet -fleet-relays 1,3 -fleet-clients 20,40 -fleet-cap 8 -workers 4 -sic-trials 0 -seed 2 -serve-mode wire -fleet-exec $(SMOKE)/ffrelayd -manifest $(SMOKE)/fleet-wire.json > /dev/null
	$(GO) run ./cmd/manifestcheck -require fleet.spilled,fleet.wire.hellos,fleet.wire.accepted,fleet.wire.refused,fleet.wire.releases,fleet.wire.load_queries,fleet.wire.blocks,fleet.wire.verified_sessions,fleet.wire.dials $(SMOKE)/fleet-wire.json
	$(GO) run ./cmd/manifestcheck -diff -ignore fleet.wire. $(SMOKE)/fleet-local.json $(SMOKE)/fleet-wire.json
	rm -rf $(SMOKE)

# Short fuzz runs over every fuzz target of the module. `go test -list`
# names each package's Fuzz* functions ahead of its `ok <pkg>` line; go
# accepts one -fuzz target per invocation, so each runs on its own. The
# target fails if the listing does not build or finds no target. Seed
# corpora make even short runs meaningful; CI runs this with the default
# budget. Override with e.g. FUZZTIME=2m. -fuzzminimizetime 50x caps the
# minimization of each new input: under go's default of 60s per input,
# FuzzDecode spends its whole budget minimizing and executes next to
# nothing.
FUZZTIME ?= 30s
fuzz-smoke:
	@list="$$($(GO) test -list '^Fuzz' ./...)" || { echo "$$list"; exit 1; }; \
	targets="$$(echo "$$list" | awk '/^Fuzz/ { f[n++] = $$1 } /^ok / { for (i = 0; i < n; i++) print $$2, f[i]; n = 0 }')"; \
	if [ -z "$$targets" ]; then echo "fuzz-smoke: go test -list found no Fuzz target"; exit 1; fi; \
	echo "$$targets" | while read -r pkg target; do \
		echo "$(GO) test -run '^$$' -fuzz '^$$target\$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 50x $$pkg"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 50x $$pkg || exit 1; \
	done

# Record the perf baseline (see EXPERIMENTS.md "Performance baseline").
# The pipeline micro-benchmarks (relay block path + SIC filter per-sample
# vs block path) additionally write machine-readable results to BENCH_pipeline.json.
# The DesiredMIMO benchmarks time the sweep's per-carrier MIMO CNF
# optimizer, one carrier and one client's 12-carrier warm chain; the
# Synthesize benchmark times one antenna pair's filter synthesis.
bench:
	$(GO) test -bench . -benchtime 1x .
	$(GO) test -bench Forward -benchtime 100000x ./internal/fft
	$(GO) test -run '^$$' -bench 'DesiredMIMO|Synthesize' -benchmem ./internal/cnf
	$(GO) test -run '^$$' -bench 'FFRelayProcess|SICFilter' -benchmem -json . > BENCH_pipeline.json

# Alloc-regression gate: the per-block hot paths (SIC filter, relay
# forward chain, multi-session session chains, one CFO rotator at 4096
# and 64 samples a block, dsp.FIR's block methods at the served chain's
# shapes and the 120-tap canceller's), the served round trip (Client.Process
# against a loopback relayd.Server, daemon side included, at 64 and at
# 4096 samples a block) and the CNF ascent's per-step 2×2 kernels
# (linalg.Mat2's Inverse, Det and ProjectUnitary) must stay at 0
# allocs/op. Any benchmark line reporting nonzero allocs/op, or a failed
# benchmark run, fails the target.
bench-allocs: build
	{ $(GO) test -run '^$$' -bench 'SICFilter|FFRelayProcess|SessionChains' -benchmem -benchtime 100x . ; \
	  $(GO) test -run '^$$' -bench 'CFOStage' -benchmem -benchtime 1000x ./internal/pipeline ; \
	  $(GO) test -run '^$$' -bench 'FIRKernel' -benchmem -benchtime 100x ./internal/dsp ; \
	  $(GO) test -run '^$$' -bench 'ServedRoundTrip' -benchmem -benchtime 1000x ./internal/relayd ; \
	  $(GO) test -run '^$$' -bench 'Mat2' -benchmem -benchtime 1000x ./internal/linalg ; } \
		| tee /dev/stderr \
		| awk '/allocs\/op/ { if ($$(NF-1)+0 != 0) bad = 1 } /^(FAIL|--- FAIL)/ { bad = 1 } END { if (bad) { print "FAIL: nonzero allocs/op in a per-block hot path"; exit 1 } }'

# Machine benchmark: how many concurrent real-time 20 MHz full-duplex
# sessions one core carries (see cmd/ffsim -fig sessions). The gauge may
# legitimately read 0 on a slow or heavily loaded host, so the check
# requires the sweep machinery's counters, not a nonzero session count.
bench-sessions: build
	$(GO) run ./cmd/ffsim -fig sessions -sic-trials 0 -manifest BENCH_sessions.json
	$(GO) run ./cmd/manifestcheck -require pipeline.batch.sweeps,pipeline.batch.sessions,pipeline.blocks,pipeline.soa_blocks BENCH_sessions.json

# The bench/ module (ffbench and its kit) is a separate Go module, so the
# root `go test ./...` never builds it: an API change in internal/ that
# breaks it would otherwise surface only when the benchmark runs, which
# is why `make check` runs this target. Vet and
# test it in -short mode under the same offline environment bench/run.sh
# uses (local toolchain, no module fetches, caches under .bench_build).
BENCH_ENV = GOCACHE=$(CURDIR)/.bench_build/gocache GOTMPDIR=$(CURDIR)/.bench_build/tmp \
	GOMODCACHE=$(CURDIR)/.bench_build/gomodcache XDG_CONFIG_HOME=$(CURDIR)/.bench_build/config \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off
bench-kit:
	mkdir -p .bench_build/gocache .bench_build/tmp .bench_build/gomodcache .bench_build/config
	cd bench && $(BENCH_ENV) $(GO) vet ./... && $(BENCH_ENV) $(GO) test -short ./...
