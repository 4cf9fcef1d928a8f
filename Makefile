# Mirrors .github/workflows/ci.yml so local runs and CI stay in lockstep.

GO ?= go

.PHONY: all build test race fuzz-smoke chaos bench bench-kernel pairs perfgate lint loc staticcheck vuln cover clean

all: lint build race bench perfgate

## build: compile every package, command and example
build:
	$(GO) build ./...
	@mkdir -p bin
	@for cmd in cmd/*/; do \
		$(GO) build -o "bin/$$(basename $$cmd)" "./$$cmd" || exit 1; \
	done
	@for ex in examples/*/; do \
		$(GO) build -o /dev/null "./$$ex" || exit 1; \
	done

## test: plain test suite
test:
	$(GO) test ./...

## race: the suite under the race detector (CI's test job), then the copy
## path's packages and the root package's transfer, cancel and close tests
## again at 1, 2 and 4 Ps — the windowed hand-off interleaves differently
## when both stages share one P, its two direct hand-offs are scheduling
## decisions, and tier-1 must not depend on the core count — and the
## interpreter's packages, whose instances read one module's compiled code
## from different goroutines
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,2,4 ./internal/pagebuf ./internal/kernel ./internal/core
	$(GO) test -race -cpu 1,2,4 -run 'Transfer|Cancel|Close' .
	$(GO) test -race -count=3 ./internal/wasm ./internal/guest ./internal/abi

## fuzz-smoke: 20 s of each interpreter fuzz target (stdlib fuzzing, seed
## corpus in internal/wasm/testdata/fuzz; a finding lands there too)
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzExecAgainstTreeEval -fuzztime 20s ./internal/wasm
	$(GO) test -run '^$$' -fuzz FuzzDecodeValidate -fuzztime 20s ./internal/wasm

## chaos: the failure-domain suite under -race (CI's chaos job); the seed is
## logged and CHAOS_SEED=N reruns a schedule
chaos:
	$(GO) test -race -count=1 -v -run 'TestChaos|TestSubmitSurvives|TestFaultedOps' .

## bench: one iteration of every benchmark plus the harness smoke runs; every
## fresh result lands under artifacts/ — the committed BENCH_*.json baselines
## are read by perfgate, never rewritten
bench:
	$(GO) test -run 'XXX' -bench . -benchtime 1x ./...
	$(GO) run ./bench -smoke
	$(GO) run ./cmd/roadrunner-load -workflows 4 -requests 8 -compact
	$(GO) run ./cmd/roadrunner-load -workflows 4 -requests 8 -cold-channels -compact
	$(GO) run ./cmd/roadrunner-load -workflows 2 -requests 4 -mode chain -phase-locked -compact
	@mkdir -p artifacts
	$(GO) run ./cmd/roadrunner-load -workflows 2 -requests 8 -mode plan -compact | tee artifacts/load-plan.json
	$(GO) run ./cmd/roadrunner-load -workflows 2 -requests 4 -mode plan -deadline 40us -payload 1048576 -compact \
		| python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["cancelled"] > 0 and d["errors"] == 0, d'
	$(GO) run ./cmd/roadrunner-load -workflows 2 -requests 4 -mode plan -deadline 30s -compact \
		| python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["cancelled"] == 0 and d["ops"] == 4, d'
	$(GO) run ./cmd/roadrunner-load -workflows 2 -requests 8 -replicas 3 -compact
	$(GO) run ./cmd/roadrunner-load -workflows 2 -requests 8 -replicas 3 -placement round-robin -compact
	$(GO) run ./cmd/roadrunner-load -workflows 2 -requests 40 -replicas 4 -mode kernel -placement round-robin -kills 1 -compact \
		| python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["kills"] == 1 and d["ops"] >= 28 and d["cancelled"] == 0, d'
	$(GO) run ./cmd/roadrunner-bench -exp fig7 -sizes 1 -json
	$(GO) run ./cmd/roadrunner-bench -exp chancache -sizes 1,4 -json > artifacts/bench-chancache.json
	@cat artifacts/bench-chancache.json
	@for exp in pipeline placement failure hotpath fanoutshare; do \
		echo "$(GO) run ./cmd/roadrunner-bench -exp $$exp -json > artifacts/bench-$$exp.json"; \
		$(GO) run ./cmd/roadrunner-bench -exp $$exp -json > artifacts/bench-$$exp.json || exit 1; \
		cat artifacts/bench-$$exp.json; \
	done
	$(GO) run ./cmd/roadrunner-load -workflows 2 -requests 8 -mode fanout -targets 8 -compact | tee artifacts/load-fanout.json

## bench-kernel: the copy path as a layer beside its floors — Write ∥ ReadFull
## over a sized socketpair (BenchmarkCopyPath4M) and 4 MiB through a bounce
## buffer on one core, on two cores that each keep their own, and handed from
## one core to the other (BenchmarkBounceFloor) — at 1 and 2 Ps, and what it
## costs a second core to join (BenchmarkSecondCoreJoin: a readied goroutine
## stolen from the waker's next-in-line slot vs taken from the run queue
## after the waker yields; 2 Ps only). Compare within one run only: the box's
## memory bandwidth drifts by tens of percent
bench-kernel:
	$(GO) test -run '^$$' -bench 'BounceFloor|CopyPath4M|SecondCoreJoin' -cpu 1,2 -count 3 ./internal/kernel

## pairs: the ten-pair protocol of the BENCH_N.md files — N alternating
## parent/change runs of `bench` (prebuilt binaries, parent from `git archive
## $(PARENT)`, change = the working tree) and the end-to-end table with wins,
## quartiles and the parent's IQR; WORKLOAD narrows the runs to one workload.
## ~45 min for ten full pairs; run nothing else meanwhile (scripts/pairs.sh)
N ?= 10
pairs:
	@test -n "$(PARENT)" || { echo "usage: make pairs PARENT=<rev> [N=10] [WORKLOAD=<name>]"; exit 2; }
	scripts/pairs.sh "$(PARENT)" "$(N)" "$(WORKLOAD)"

## perfgate: regenerate the hot-path and shared-egress fan-out trajectories
## and gate them against the committed BENCH_8.json + BENCH_9.json (CI's
## perf-gate job); also re-pins the allocation ceilings (0 allocs/op on the
## warm transfer fast path)
perfgate:
	@mkdir -p artifacts
	$(GO) run ./cmd/roadrunner-bench -exp hotpath,fanoutshare -json > artifacts/bench-fresh.json
	$(GO) run ./cmd/perfgate -baseline BENCH_8.json,BENCH_9.json -fresh artifacts/bench-fresh.json
	$(GO) test -run TestAllocCeilings -v .

## lint: go vet plus the roadvet suite (regionrelease, poolreturn,
## refbalance, gaugebalance, fdclose, windowcredit, lockorder, lockguard,
## ctxpoll, errclass, ctxcheck, doccheck — the order of `suite` in
## cmd/roadvet/main.go — and the gofmt gate)
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/roadvet -budget ROADVET_BASELINE.json ./...

## loc: non-test, non-testdata, non-vendor Go lines per top-level package
## dir, and for the lint gate as a whole — the "net LoC per PR" figure
## ROADMAP.md asks every PR to report — then the root package's exported
## surface (functions + methods in `go doc -all .`)
loc:
	@count() { find "$$@" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './vendor/*' -print0 | xargs -0 cat | wc -l; }; \
	printf '%7d  %s\n' "$$(count . -maxdepth 1)" "(root package)"; \
	for d in bench cmd/* examples internal/*; do printf '%7d  %s\n' "$$(count $$d)" "$$d"; done; \
	printf '%7d  %s\n' "$$(count internal/analysis cmd/roadvet)" "internal/analysis + cmd/roadvet"; \
	printf '%7d  %s\n' "$$(count internal/wasm/compile.go internal/wasm/exec.go)" "internal/wasm compile.go + exec.go (1207 before the register-form IR, PR 17)"; \
	printf '%7d  %s\n' "$$($(GO) doc -all . | grep -cE '^func |^    func ')" "exported functions + methods of the root package"

## staticcheck: static-analysis gate (CI's lint job; needs the binary or network)
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1.1 ./...; \
	fi

## vuln: known-vulnerability scan (CI's vuln job; needs the binary or network)
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		$(GO) run golang.org/x/vuln/cmd/govulncheck@v1.1.4 ./...; \
	fi

## cover: per-package coverage (CI's coverage job)
cover:
	@mkdir -p artifacts
	$(GO) test -covermode=atomic -coverprofile=artifacts/coverage.out ./... \
		> artifacts/coverage-per-package.txt
	@cat artifacts/coverage-per-package.txt
	$(GO) tool cover -func=artifacts/coverage.out | tail -1

clean:
	rm -rf bin
