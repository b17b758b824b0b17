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

.PHONY: fmt build test vet lint lint-fixtures staticcheck govulncheck race fuzz-short fuzz-decode fuzz-cache fuzz chaos-short chaos-net benchmark-check ci loc

build:
	$(GO) build ./...

# gofmt gate: fails, listing the files, when gofmt would rewrite any Go
# file (the benchmark build directory's module cache is not ours to format).
fmt:
	@out=$$(gofmt -l $$(find . -name '*.go' ! -path './.bench_build/*')); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# go vet's copylocks check is the repo's lock-by-value check (lockbalance
# checks only where a lock is released), so it must stay on.
vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Project-specific analyzers (hotalloc, ctxflow, floateq, lockbalance),
# each a walk over the typed AST: each catches a mutation of production
# code that go test, -race, leakcheck and go vet miss (DESIGN.md §12). Stats counters need no
# analyzer: they are one table, core.Counters, checked by a reflect test.
# Fails on any unsuppressed finding; see README "Static analysis".
lint:
	$(GO) run ./cmd/3dpro-lint ./...

# The analyzers' own test suites: every `// want` fixture and the
# suppression-parser tables. -short skips the whole-repo smoke run, which
# `make lint` already covers.
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
	$(GO) test -run='^Fuzz' ./...

# Coverage-guided fuzzing of the PPVP decoder alone for $(FUZZTIME): the seed
# corpus never drives the decoder's face table (probe, grow, backward-shift
# delete) through hostile blobs. Besides never panicking, a decode resumed
# (ResumeDecoder) from every LOD whose decode succeeds must reach the top
# LOD with the cold decode's exact mesh, or both must fail.
fuzz-decode:
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/ppvp

# Coverage-guided fuzzing of the decode cache's books and GDSF eviction heap
# for $(FUZZTIME): random lookups, memo builds, clears and misses that evict
# while another entry is in flight, checked after every step. Used bytes are
# the resident entries plus the charged warm bytes, within the budget; a
# charged warm point is charged its bare mesh (24 B per vertex, 12 B per
# face, 4 B per face of tree order when its entry built a tree, and the
# entry overhead); the charged warm bytes stay within half of it; every
# uncharged warm point shares its slices with the resident entry at its
# LOD; Clear leaves no warm point; and every victim of the lazily re-ranked
# heap is the eager argmin of the true GDSF keys.
fuzz-cache:
	$(GO) test -run='^$$' -fuzz='^FuzzCachePolicy$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/cache

# Actual coverage-guided fuzzing, $(FUZZTIME) per target. The targets are
# whatever `go test -list` finds in each package, so a new Fuzz function is
# fuzzed without editing this list. Each new interesting input is minimized
# for at most 1s: at Go's default of 60s, minimizing eats a short budget
# (FuzzDecodeTile from an empty cache: 2,639 execs in 15s at the default,
# 46,704 at 1s).
fuzz:
	@set -e; pkgs=$$($(GO) list ./...); for pkg in $$pkgs; do \
		list=$$($(GO) test -list '^Fuzz' $$pkg); \
		for fn in $$(echo "$$list" | grep '^Fuzz' || true); do \
			echo "$(GO) test -run='^$$' -fuzz='^$$fn\$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s $$pkg"; \
			$(GO) test -run='^$$' -fuzz="^$$fn\$$" -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s $$pkg; \
		done; \
	done

# Seeded chaos campaign under the race detector: $(CHAOSTIME) of fresh-seed
# iterations of TestChaosCampaignExtended (corrupt tiles + probabilistic
# decode errors + decode panics; see internal/core/chaos_test.go).
chaos-short:
	_3DPRO_CHAOS=$(CHAOSTIME) $(GO) test -race -run 'TestChaosCampaign' -count=1 ./internal/core

# Every shard and server test under the race detector, uncached: all of them
# run coordinators over real HTTP loopback workers — dead and corrupted links,
# retries, hedges, failover, breakers, prober rejoin, graceful drain, loans
# by reference and re-added datasets. No test list to keep in step.
chaos-net:
	$(GO) test -race -count=1 ./internal/shard ./internal/server

# The repository benchmark (benchmark/, see BENCHMARK.json) is a Go module of
# its own, so the root `go build ./... && go test ./...` never compiles it
# and API drift against it would otherwise surface only when a performance
# claim is measured. Vet it and run its short tests (-short skips the
# 2-second workload miniatures).
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

ci: fmt vet lint staticcheck govulncheck race fuzz-short fuzz-decode fuzz-cache chaos-short chaos-net benchmark-check

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
