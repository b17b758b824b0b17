GO ?= go
FUZZTIME ?= 10s
CHAOSTIME ?= 20s
# External analyzers are pinned and run via `go run pkg@version` so no
# binary needs to be installed or vendored. They require module downloads;
# the targets below probe for availability and skip with a notice when the
# module cache is cold and there is no network (the in-repo 3dpro-lint
# suite always runs — it is stdlib-only).
STATICCHECK_PKG ?= honnef.co/go/tools/cmd/staticcheck@2025.1.1
GOVULNCHECK_PKG ?= golang.org/x/vuln/cmd/govulncheck@v1.1.4

.PHONY: build test vet lint lint-fixtures staticcheck govulncheck race fuzz-short fuzz chaos-short chaos-net benchmark-check ci loc

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Project-specific analyzers (hotalloc, ctxflow, atomiccounter, floateq,
# goleak, lockbalance, chandiscipline, wgbalance, statsexhaustive).
# Fails on any unsuppressed finding; see README "Static analysis".
lint:
	$(GO) run ./cmd/3dpro-lint ./...

# The analyzers' own test suites: every `// want` fixture, the CFG layer's
# unit tests, and the suppression-parser tables. -short skips the
# whole-repo smoke run, which `make lint` already covers.
lint-fixtures:
	$(GO) test -short ./internal/analysis/...

# Pinned staticcheck; skips (with a visible notice) when the module is not
# fetchable, e.g. offline with a cold module cache. CI has network and
# therefore actually enforces it.
staticcheck:
	@if $(GO) run $(STATICCHECK_PKG) -version >/dev/null 2>&1; then \
		$(GO) run $(STATICCHECK_PKG) ./...; \
	else \
		echo "staticcheck: $(STATICCHECK_PKG) unavailable (offline, cold module cache?); skipping"; \
	fi

# Pinned govulncheck, same availability gating as staticcheck.
govulncheck:
	@if $(GO) run $(GOVULNCHECK_PKG) -version >/dev/null 2>&1; then \
		$(GO) run $(GOVULNCHECK_PKG) ./...; \
	else \
		echo "govulncheck: $(GOVULNCHECK_PKG) unavailable (offline, cold module cache?); skipping"; \
	fi

race:
	$(GO) test -race ./...

# Run just the seed corpus of every fuzz target (fast, deterministic; what CI runs).
fuzz-short:
	$(GO) test -run='^Fuzz' ./internal/ppvp ./internal/storage ./internal/analysis ./internal/faultinject ./internal/geom

# Actual coverage-guided fuzzing, $(FUZZTIME) per target.
fuzz:
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/ppvp
	$(GO) test -fuzz=FuzzDecodeTile -fuzztime=$(FUZZTIME) ./internal/storage
	$(GO) test -fuzz=FuzzCollectSuppressions -fuzztime=$(FUZZTIME) ./internal/analysis
	$(GO) test -fuzz=FuzzTriTriDist2Bounded -fuzztime=$(FUZZTIME) ./internal/geom
	$(GO) test -fuzz=FuzzMinDist2BatchRange -fuzztime=$(FUZZTIME) ./internal/geom

# Seeded chaos campaign under the race detector: $(CHAOSTIME) of fresh-seed
# iterations of TestChaosCampaignExtended (corrupt tiles + probabilistic
# decode errors + decode panics; see internal/core/chaos_test.go), then the
# multi-shard campaign (shards killed/corrupted at the transport mid-query;
# see internal/shard/chaos_test.go).
chaos-short:
	_3DPRO_CHAOS=$(CHAOSTIME) $(GO) test -race -run 'TestChaosCampaign' -count=1 ./internal/core
	$(GO) test -race -run 'TestDeadShardsDegrade|TestRetryRecoversTransientFault|TestHedgedRequestBeatsStraggler|TestBreakerOpensAndRecovers|TestRecvCorruptionIsTransportError|TestAllShardsDead' -count=1 ./internal/shard

# The multi-process robustness ladder over real HTTP loopback workers, under
# the race detector: seeded retry/hedge/failover/breaker/rejoin campaign,
# replicated-placement failover, both-replicas-dead degradation, wire
# corruption, graceful worker drain, loans by reference (warm-cache hits,
# the missing path and its CRC check) and re-added datasets (see
# internal/shard/http_test.go, failover_test.go and loans_test.go).
chaos-net:
	$(GO) test -race -run 'TestHTTPChaosCampaign|TestShardedEquivalenceHTTP|TestHTTPAnySingleWorkerDeathIsExact|TestHTTPBothReplicasDeadDegrades|TestHTTPRecvCorruptionIsTransportError|TestWorkerDrainPreservesInFlight|TestWorkerEchoesRequestID|TestReplicaFailoverExact|TestBothReplicasDeadDegrades|TestProberRejoinsShard|TestLoansHitWorkerCache|TestHTTPLoansMissingAndCRC|TestReAddDatasetReplacesGroups|TestHTTPLoansConcurrentColdJoins' -count=1 ./internal/shard

# The repository benchmark (benchmark/, see BENCHMARK.json) is a Go module of
# its own, so the root `go build ./... && go test ./...` never compiles it
# and API drift against it would otherwise surface only when a performance
# claim is measured. Vet it and run its short tests (-short skips the
# 2-second workload miniatures).
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

ci: vet lint staticcheck govulncheck race fuzz-short chaos-short chaos-net benchmark-check

# Go lines that are neither tests nor analyzer fixtures, per internal/*
# package (subpackages included) and for the whole module — benchmark/ is a
# module of its own and is left out. These are the counts ROADMAP acceptance
# criteria quote; comments and blank lines count, moving code into _test.go
# does not reduce them honestly and is not how they are meant to go down.
LOCFIND = -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './benchmark/*' ! -path './.bench_build/*'
loc:
	@for d in internal/*/; do \
		printf '%7d  %s\n' "$$(find $$d $(LOCFIND) -exec cat {} + | wc -l)" "$${d%/}"; \
	done
	@printf '%7d  total\n' "$$(find . $(LOCFIND) -exec cat {} + | wc -l)"
