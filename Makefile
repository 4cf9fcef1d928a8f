# Mirrors .github/workflows/ci.yml so local runs and CI stay in lockstep.

GO ?= go

.PHONY: all build examples test race fuzz-smoke chaos bench bench-kernel bench-drain pairs kernels alloc lint mutants cross codegen loc staticcheck vuln cover clean

all: lint build examples race bench alloc

## build: compile every package and link the commands into bin/ (the
## examples are linked and run by `examples`)
build:
	$(GO) build ./...
	@mkdir -p bin
	@for cmd in cmd/*/; do \
		$(GO) build -o "bin/$$(basename $$cmd)" "./$$cmd" || exit 1; \
	done

## examples: build every example into bin/examples and run it; an example
## that exits non-zero fails the target (CI's build job). All seven take
## about 1.5 s together
examples:
	@mkdir -p bin/examples
	@for ex in examples/*/; do \
		name=$$(basename $$ex); \
		$(GO) build -o "bin/examples/$$name" "./$$ex" || exit 1; \
		echo "== examples/$$name"; \
		"bin/examples/$$name" || { echo "examples: $$name exited non-zero" >&2; exit 1; }; \
	done

## test: plain test suite
test:
	$(GO) test ./...

## race: the suite under the race detector (CI's test job), then the copy
## path's packages and the root package's transfer, cancel, close,
## multicast and fan-out tests again at 1, 2 and 4 Ps — the windowed
## hand-off interleaves differently when both stages share one P, its two
## direct hand-offs are scheduling decisions, fan-out legs share the unicast
## stage workers, and tier-1 must not depend on the core count — and the
## interpreter's packages, whose instances read one module's compiled code
## from different goroutines. The network drain's tests run twenty times at
## each P count besides: its two depositors claim pieces of one slot, and the
## order of their claims is the scheduler's. So do the shim hose's, whose
## stages of different pairs take turns on one pipe, and the worker pool's:
## its Submit/Close race is settled by one CAS whose interleavings depend on
## the P count
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,2,4 ./internal/pagebuf ./internal/kernel ./internal/core
	$(GO) test -race -count=20 -cpu 1,2,4 -run 'Striped|Depositor|Hose' ./internal/core
	$(GO) test -race -count=20 -cpu 1,2,4 ./internal/sched
	$(GO) test -race -cpu 1,2,4 -run 'Transfer|Cancel|Close|Multicast|Fanout' .
	$(GO) test -race -count=3 ./internal/wasm ./internal/guest ./internal/abi

## fuzz-smoke: 20 s of each interpreter fuzz target, of the guest kernels
## and of the guest allocator against their Go references (stdlib fuzzing,
## seed corpora in internal/{wasm,guest}/testdata/fuzz; a finding lands
## there too)
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzExecAgainstTreeEval -fuzztime 20s ./internal/wasm
	$(GO) test -run '^$$' -fuzz FuzzDecodeValidate -fuzztime 20s ./internal/wasm
	$(GO) test -run '^$$' -fuzz FuzzGuestKernels -fuzztime 20s ./internal/guest
	$(GO) test -run '^$$' -fuzz FuzzGuestAllocator -fuzztime 20s ./internal/guest

## chaos: the failure-domain suite under -race (CI's chaos job); the seed is
## logged and CHAOS_SEED=N reruns a schedule
chaos:
	$(GO) test -race -count=1 -v -run 'TestChaos|TestSubmitSurvives|TestFaultedOps' .

## bench: one iteration of every benchmark plus the data-delivery benchmark's
## smoke run (every workload and the layer run, checksummed) — CI's
## bench-smoke job
bench:
	$(GO) test -run 'XXX' -bench . -benchtime 1x ./...
	$(GO) run ./bench -smoke

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

## bench-drain: the network path's drain as a layer beside its floor — a warm
## cross-node NetworkTransfer of 1, 4 and 16 MiB (BenchmarkNetworkDrain; the
## deposit into the target VM is its one payload copy) and 16 MiB through a
## bare memmove on one goroutine and split in halves over two
## (BenchmarkDrainFloor) — at 1 and 2 Ps. Compare within one run only; not
## in CI
bench-drain:
	$(GO) test -run '^$$' -bench 'NetworkDrain|DrainFloor' -cpu 1,2 -count 3 ./internal/core

## pairs: the ten-pair protocol of the BENCH_N.md files — N alternating
## parent/change runs of `bench` (prebuilt binaries, parent from `git archive
## $(PARENT)`, change = the working tree) and the end-to-end table with wins,
## quartiles and the parent's IQR; WORKLOAD narrows the runs to one workload.
## ~45 min for ten full pairs; run nothing else meanwhile (scripts/pairs.sh)
N ?= 10
pairs:
	@test -n "$(PARENT)" || { echo "usage: make pairs PARENT=<rev> [N=10] [WORKLOAD=<name>]"; exit 2; }
	scripts/pairs.sh "$(PARENT)" "$(N)" "$(WORKLOAD)"

## kernels: the guest's four kernels on $(PARENT) and on the working tree —
## N alternating runs (12 unless N is given) of BenchmarkGuest{Produce,
## Checksum,Serialize,Deserialize}1MB from prebuilt test binaries, then each
## binary's wasm.run offset mod 64 and per kernel the medians, lower
## quartiles and wins; times, gates nothing, not in CI (scripts/kernels.sh)
kernels:
	@test -n "$(PARENT)" || { echo "usage: make kernels PARENT=<rev> [N=12]"; exit 2; }
	scripts/kernels.sh "$(PARENT)" "$(if $(filter command line,$(origin N)),$(N),12)"

## alloc: the allocation ceilings (0 allocs/op on the warm transfer fast
## path; CI's alloc-ceilings job)
alloc:
	$(GO) test -run TestAllocCeilings -v .

## lint: go vet plus the roadvet suite (regionrelease, poolreturn,
## refbalance, windowcredit, lockguard, ctxpoll, errclass, ctxcheck,
## doccheck — the order of `suite` in cmd/roadvet/main.go — and
## the gofmt gate), then `scripts/mutants.sh -check`: every patch of the
## mutant table still applies, so a refactor that moves a mutated site
## fails here until its patch is re-cut
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/roadvet -budget ROADVET_BASELINE.json ./...
	scripts/mutants.sh -check

## mutants: the mutant table of DESIGN §9.1 — each patch under
## scripts/mutants/ injects one bug of a roadvet row's class into a scratch
## copy of the tree, and the table records which gates catch it: the row,
## go test, chaos, fuzz-smoke and race. Minutes to hours; not in CI
## (scripts/mutants.sh)
mutants:
	scripts/mutants.sh

## cross: the builds without a mapped linear memory — everything for
## Windows, where internal/wasm keeps every linear memory on the Go heap,
## and internal/wasm vetted for macOS, whose mapped backing differs from
## Linux's only in its syscall package (CI's lint job)
cross:
	GOOS=windows $(GO) build ./...
	GOOS=darwin $(GO) vet ./internal/wasm

## codegen: the two rules DESIGN §13 sets for the code the compiler makes of
## the interpreter's dispatch loop, wasm.run — it calls nothing but the
## index-check panics, and no bounds check is left on a linear-memory access
## — read from the compiler's -S and check_bce reports; no timing (CI's lint
## job, scripts/codegen.sh)
codegen:
	scripts/codegen.sh

## loc: non-test, non-testdata, non-vendor Go lines per top-level package
## dir, and for the lint gate as a whole — the "net LoC per PR" figure
## ROADMAP.md asks every PR to report — then the root package's exported
## surface (functions + methods in `go doc -all .`) and the knob count: the
## settable values a caller can turn (the root package's With* constructors,
## the exported fields of internal/core's *Options and ShimConfig structs and
## of wasi.Host, all from `go doc -all`). Each of the last two counts must
## equal its ceiling below, so the target is a ratchet: it fails when a
## count rises above its ceiling, and also when it falls below one — a
## change that shrinks the surface lowers the ceiling with it. Raise a
## ceiling only with the reason in CHANGES.md
LOC_MAX_EXPORTED := 72
LOC_MAX_KNOBS := 29
loc:
	@count() { find "$$@" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './vendor/*' -print0 | xargs -0 cat | wc -l; }; \
	printf '%7d  %s\n' "$$(count . -maxdepth 1)" "(root package)"; \
	for d in bench cmd/* examples internal/*; do printf '%7d  %s\n' "$$(count $$d)" "$$d"; done; \
	printf '%7d  %s\n' "$$(count internal/analysis cmd/roadvet)" "internal/analysis + cmd/roadvet"; \
	printf '%7d  %s\n' "$$(count internal/wasm/compile.go internal/wasm/exec.go)" "internal/wasm compile.go + exec.go (1207 before the register-form IR, PR 17)"; \
	exported=$$($(GO) doc -all . | grep -cE '^func |^    func '); \
	printf '%7d  %s\n' "$$exported" "exported functions + methods of the root package (ceiling $(LOC_MAX_EXPORTED))"; \
	knobs=$$( { $(GO) doc -all . | grep -E '^func With'; \
		$(GO) doc -all ./internal/core | awk '/^type [A-Za-z]*(Options|ShimConfig) struct/ {f=1; next} /^}/ {f=0} f && /^\t[A-Z]/'; \
		$(GO) doc -all ./internal/wasi | awk '/^type Host struct/ {f=1; next} /^}/ {f=0} f && /^\t[A-Z]/'; } | wc -l); \
	printf '%7d  %s\n' "$$knobs" "settable values: root With* + internal/core *Options/ShimConfig fields + wasi.Host fields (ceiling $(LOC_MAX_KNOBS))"; \
	if [ "$$exported" -gt $(LOC_MAX_EXPORTED) ] || [ "$$knobs" -gt $(LOC_MAX_KNOBS) ]; then \
		echo "loc: exported surface or knob count above its ceiling" >&2; exit 1; \
	fi; \
	if [ "$$exported" -lt $(LOC_MAX_EXPORTED) ] || [ "$$knobs" -lt $(LOC_MAX_KNOBS) ]; then \
		echo "loc: exported surface or knob count below its ceiling; lower the ceiling to the count" >&2; exit 1; \
	fi

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
