# Stochastic-HMDs reproduction — build & verification entry points.
#
#   make build    tier-1 build
#   make test     tier-1 tests
#   make race     suite under the race detector
#   make fmt      fail on any Go file gofmt would change
#   make perfbench  vet + test the perfbench module against this tree
#   make examples run every program under examples/
#   make verify   fmt + vet + build + test + race + perfbench + examples, in that order
#   make bench    A/B inference benchmarks -> BENCH_inference.json
#   make loc      net non-test Go lines against LOC_BASE
#
# The race pass is part of `verify` because the deployment layer
# (core.Session / core.Supervisor / chaos.Env / serve.Pool) is
# explicitly concurrency-safe and its tests exercise concurrent
# detections.
#
# The race pass runs every package with -short: internal/experiments
# skips its multi-proxy attack campaigns there (they would exceed the
# 10-minute package timeout under race instrumentation) but still runs
# the concurrency-bearing figure tests — Fig2a/Fig2b drive the sharded
# parallel evaluators. The full campaigns run race-free in `make test`.

GO ?= go
SOAK_DURATION ?= 30s
SOAK_REPORT ?= soak_report.json
SOAK_FLAGS ?=
FLEET_SOAK_FLAGS ?=
TENANT_SOAK_FLAGS ?=
ROLLOUT_SOAK_FLAGS ?=
STATICCHECK_VERSION ?= 2024.1.1
LOC_BASE ?= origin/main

.PHONY: build test race vet fmt perfbench examples verify bench soak fleet-soak tenant-soak rollout-soak conform lint loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

# fmt lists every Go file gofmt would reformat and fails if there is any.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# perfbench is its own module (replace shmd => ../), so the root's
# `go build ./...` and `go test ./...` never compile it. Vetting and
# testing it here makes a change that breaks the benchmark fail verify
# rather than the benchmark run.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# examples runs every demo under examples/ and fails on the first one
# that exits non-zero. The demos are the end-to-end users of the
# library API (examples/resilience builds its detector on a chaos
# plane), and no test runs them.
examples:
	@for d in examples/*/; do \
		echo "examples: $${d%/}"; \
		$(GO) run ./$${d%/} >/dev/null || exit 1; \
	done

verify: fmt vet build test race perfbench examples
	@echo "verify: OK"

# bench regenerates BENCH_inference.json: ns/op, muls/s and allocs/op
# for one exact and one undervolted (skip-ahead) forward pass, the
# batch-lane, serving, decoding, training and MAC-kernel rows, plus the
# headline speedup ratios.
bench:
	$(GO) run ./cmd/bench -count 3 -out BENCH_inference.json

# conform runs the statistical conformance suite: chi-square/KS
# goodness-of-fit of the skip-ahead injector (scalar and span-planned
# batch paths) against the closed-form geometric gap law and the Fig 1
# bit-location model, scalar vs one-lane and many-lane batch
# homogeneity, and the SPRT
# detection-rate checks against their pinned golden value. Fixed seeds:
# deterministic in CI; a fresh seed would pass with probability > 98%
# (alpha 1e-3 per check, <20 checks).
conform:
	$(GO) test ./internal/conform -count=1 -v

# lint runs staticcheck and govulncheck via `go run`, so neither tool
# needs to be preinstalled; both resolve through the module proxy and
# therefore need network (CI always has it — offline dev boxes should
# rely on `make vet`).
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

# loc prints added, removed and net non-test Go lines per top-level
# directory ("." for the repo root), from `git diff --numstat` of the
# working tree against LOC_BASE. _test.go files and testdata are
# excluded; untracked files are not counted until added.
loc:
	@git diff --numstat --no-renames $(LOC_BASE) -- '*.go' ':(exclude)*_test.go' ':(exclude)**/testdata/**' | \
	awk -F'\t' '{ d = index($$3, "/") ? substr($$3, 1, index($$3, "/") - 1) : "."; \
		add[d] += $$1; del[d] += $$2; ta += $$1; td += $$2 } \
		END { for (d in add) printf "%-12s +%-6d -%-6d net %+d\n", d, add[d], del[d], add[d] - del[d] | "sort"; \
		close("sort"); printf "%-12s +%-6d -%-6d net %+d\n", "total", ta, td, ta - td }'

# soak chaos-soaks the full detection service under the race detector:
# concurrent clients against a real listener while a scripted storm
# injects faults (including one permanent regulator death). Asserts
# zero double-checkouts, bounded 5xx, and that every quarantined slot
# respawned; writes $(SOAK_REPORT).
soak:
	$(GO) run -race ./cmd/shmd soak -duration $(SOAK_DURATION) -report $(SOAK_REPORT) $(SOAK_FLAGS)

# fleet-soak chaos-soaks the routed fleet topology under the race
# detector: the router over three real backend listeners, a transient
# fault storm across all of them, and one backend hard-killed
# mid-run. Asserts zero requests lost at the client, bounded 5xx, the
# dead backend ejected from rotation, and traffic re-converged onto
# the survivors; writes $(SOAK_REPORT). FLEET_SOAK_FLAGS="-wire"
# drives the same storm through the SHMDWIRE binary path via the SDK.
fleet-soak:
	$(GO) run -race ./cmd/shmd soak -fleet -duration $(SOAK_DURATION) -report $(SOAK_REPORT) $(FLEET_SOAK_FLAGS)

# tenant-soak runs the multi-tenant isolation soak under the race
# detector: one serve instance with per-tenant QoS on and three
# scripted personas (steady realtime, bursty standard, abusive batch)
# hammering it concurrently. Asserts the isolation SLOs — steady sees
# zero sheds and p99 inside budget, well-behaved tenants lose nothing,
# and the abusive tenant's traffic mostly sheds 429 at admission;
# writes $(SOAK_REPORT).
tenant-soak:
	$(GO) run -race ./cmd/shmd soak -tenants -duration $(SOAK_DURATION) -report $(SOAK_REPORT) $(TENANT_SOAK_FLAGS)

# rollout-soak runs the canary rollout soak under the race detector:
# a registry-backed serve instance under sustained live traffic, a
# conforming v2 pushed mid-storm (must canary on one slot and
# auto-promote fleet-wide), then a deliberately drifted v3 whose
# manifest is self-consistent — only the live canary comparison can
# catch it (must auto-rollback, leaving v2 on every slot). Asserts
# zero lost requests and zero double checkouts while every slot
# rolls; writes $(SOAK_REPORT). SOAK_DURATION is the budget both
# rollouts must resolve within, not a fixed runtime.
rollout-soak:
	$(GO) run -race ./cmd/shmd soak -rollout -duration $(SOAK_DURATION) -report $(SOAK_REPORT) $(ROLLOUT_SOAK_FLAGS)
