# Tier-1 verify plus the concurrency checks, one command each.
#
#   make ci          — everything the driver checks, in order
#   make bench-module — vet and test the benchmark module (benchmark/, a
#                      module of its own that imports engine internals
#                      the root build never compiles), as CI's
#                      benchmark job does
#   make lint        — the dbvet analyzer suite (lock, deadlock, nilness,
#                      atomic, pin, hotpath, hotpath-perf, errcheck,
#                      shadow contracts) over every package, test files
#                      included, incrementally cached in bin/dbvet-cache
#   make race        — full test suite under the race detector
#   make test-portable — full test suite with GODEBUG=cpu.avx2=off, so
#                      every simd kernel runs its pure-Go fallback
#   make stress      — the concurrent OLTP/OLAP stress tests and the
#                      WAL replay model test, raced, twenty
#                      times each, plus the kill -9 WAL recovery stress (a
#                      victim process is SIGKILLed at random crash points
#                      and reopened asserting zero lost acknowledged writes)
#   make flake       — the whole suite five times over, beside one busy
#                      loop per CPU, so a test whose verdict depends on
#                      goroutine scheduling fails here and not at random
#                      in someone's `go test ./...`
#   make fuzz-short  — every fuzz target for FUZZTIME (default 60s) each
#   make examples    — build every example; run quickstart (incl. durable
#                      reopen) against a temp dir
#   make linkcheck   — verify local links in README/ARCHITECTURE/ROADMAP
#   make loc         — non-test, non-blank, non-comment Go and
#                      assembler lines per package (ROADMAP aim 2's
#                      tracked figure; printed in the CI job summary next
#                      to the lint delta)

GO ?= go
FUZZTIME ?= 60s

.PHONY: all build test test-portable race vet bench-module lint fmt-check stress flake fuzz-short examples linkcheck loc ci

all: ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The portable-dispatch leg: GODEBUG=cpu.avx2=off makes every simd kernel
# dispatch to its pure-Go implementation, so the fallback path the assembly
# shadows is itself tested end to end. The differential fuzz harness still
# exercises the AVX2 kernels directly on capable hardware (it dispatches on
# the CPU feature, not the GODEBUG override), so one leg covers both.
test-portable:
	GODEBUG=cpu.avx2=off $(GO) test ./...

race:
	$(GO) test -race ./...

# Baseline vet is the full standard suite (copylocks, lostcancel, …)
# plus an extended unusedresult list: the engine's pure kernels are
# added to the stock functions, so calling one as a statement — for a
# side effect it does not have — is flagged. nilness and the upstream
# shadow analyzer need golang.org/x/tools (SSA); shadow is covered by
# the in-tree dbvet analyzer instead (make lint), nilness stays gated
# on the dependency (see ARCHITECTURE.md, Enforced invariants).
UNUSED_FUNCS = errors.New,fmt.Errorf,fmt.Sprint,fmt.Sprintf,sort.Reverse,context.WithValue,context.WithCancel,context.WithDeadline,context.WithTimeout,datablocks/internal/simd.SumFloat64,datablocks/internal/simd.CountNotNull,datablocks/internal/simd.MinMaxInt64,datablocks/internal/simd.MinMaxFloat64,datablocks/internal/simd.Mix64,datablocks/internal/simd.HashCombine,datablocks/internal/simd.HashStr,datablocks/internal/simd.BitmapGet,datablocks/internal/simd.BitmapWords,datablocks/internal/simd.CPUFeatureLevel,datablocks/internal/simd.DispatchInfo

vet:
	$(GO) vet -unusedresult.funcs='$(UNUSED_FUNCS)' ./...

# The benchmark module (benchmark/go.mod, replace datablocks => ../)
# compiles against engine internals: a change to them breaks it here, not
# at the next benchmark run. Its tests run every workload at smoke scale.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# dbvet: the in-tree static-analysis suite (internal/analysis). It loads
# the test-augmented package variants exactly as go vet does, so _test.go
# files are covered, and keeps a per-package result cache in
# bin/dbvet-cache keyed by tool hash, sources, export data and dependency
# facts — an unchanged tree re-lints in the time it takes to hash it.
lint:
	@mkdir -p bin
	$(GO) build -o bin/dbvet ./cmd/dbvet
	./bin/dbvet ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

stress:
	$(GO) test -race -count=20 -run 'TestHybridStress|TestBudgetedTableMatchesUnbounded|TestStorageStress|TestSnapshotOneVersionPerKey|TestScansSeeOneVersionPerKeyUnderUpdates|TestFreezeAllConcurrentInserts|TestUpdateLookupNoReadAnomaly|TestUpdateLookupStress|TestConcurrentEvictReloadStress|TestParallelBatchQueryUnderWrites|TestWALStripedWritersRace|TestWALGroupCommitCrashProperty|TestWALParallelReplayMatchesModel|TestIndexConcurrentGrowth|TestLookupDuringFreezeSorted|TestLookupDuringBulkLoad|TestLookupOpCountsExact' . ./internal/storage/ ./internal/index/
	$(GO) test -count=1 -run 'TestKillRecoveryStress' .

# Each package's test binary is built once, before the load starts; then
# every binary runs -test.count=5 in its package directory (as go test
# runs it) while one busy loop per CPU — GOMAXPROCS of them — competes for
# the cores. A failing package's output is printed; the target fails if
# any package did.
flake:
	@rm -rf bin/flake && mkdir -p bin/flake
	@$(GO) list -f '{{if or .TestGoFiles .XTestGoFiles}}{{.ImportPath}} {{.Dir}}{{end}}' ./... > bin/flake/pkgs
	@while read -r pkg dir; do \
		$(GO) test -c -o "bin/flake/$$(echo $$pkg | tr / _).test" "$$pkg" || exit 1; \
	done < bin/flake/pkgs
	@pids=; \
	for i in $$(seq $$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)); do \
		sh -c 'while :; do :; done' & pids="$$pids $$!"; \
	done; \
	trap 'kill $$pids' EXIT; \
	failed=0; \
	while read -r pkg dir; do \
		bin="$(CURDIR)/bin/flake/$$(echo $$pkg | tr / _).test"; \
		if (cd "$$dir" && "$$bin" -test.count=5 -test.timeout=30m) > "$(CURDIR)/bin/flake/out" 2>&1; then \
			echo "ok    $$pkg"; \
		else \
			echo "FAIL  $$pkg"; cat "$(CURDIR)/bin/flake/out"; failed=1; \
		fi; \
	done < bin/flake/pkgs; \
	exit $$failed

# go test fuzzes one target per invocation: list each explicitly.
fuzz-short:
	$(GO) test -run '^$$' -fuzz=FuzzUnmarshalBlock -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz=FuzzLoadAttrs -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz=FuzzScanLayouts -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz=FuzzExprEval -fuzztime=$(FUZZTIME) ./internal/exec
	$(GO) test -run '^$$' -fuzz=FuzzJoin -fuzztime=$(FUZZTIME) ./internal/exec
	$(GO) test -run '^$$' -fuzz=FuzzPlan -fuzztime=$(FUZZTIME) ./internal/exec
	$(GO) test -run '^$$' -fuzz=FuzzKeyFilter -fuzztime=$(FUZZTIME) ./internal/exec
	$(GO) test -run '^$$' -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz=FuzzIndexModel -fuzztime=$(FUZZTIME) ./internal/index
	$(GO) test -run '^$$' -fuzz=FuzzFindKernels -fuzztime=$(FUZZTIME) ./internal/simd
	$(GO) test -run '^$$' -fuzz=FuzzReduceKernels -fuzztime=$(FUZZTIME) ./internal/simd
	$(GO) test -run '^$$' -fuzz=FuzzKeyBits -fuzztime=$(FUZZTIME) ./internal/simd
	$(GO) test -run '^$$' -fuzz=FuzzMinMaxKernels -fuzztime=$(FUZZTIME) ./internal/simd
	$(GO) test -run '^$$' -fuzz=FuzzUnpackKernels -fuzztime=$(FUZZTIME) ./internal/simd
	$(GO) test -run '^$$' -fuzz=FuzzGroupFold -fuzztime=$(FUZZTIME) ./internal/simd

# Build every example and run quickstart end to end — it creates a durable
# database in a temp dir, closes it and reopens it, so the documented
# create → close → reopen flow is exercised on every CI run.
examples:
	$(GO) build ./examples/...
	@dir=$$(mktemp -d); \
	trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./examples/quickstart "$$dir"

linkcheck:
	$(GO) test -run TestMarkdownDocLinks .

# Code size per package: lines of non-test Go and of assembler that are
# neither blank nor comment-only. `go list ./...` already leaves out what
# the figure must not count — benchmark/ is its own module, and the
# analyzer fixtures live under testdata directories.
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}}' ./... | while read -r pkg dir; do \
		n=$$(ls "$$dir"/*.go "$$dir"/*.s 2>/dev/null | grep -v '_test\.go$$' | xargs cat | grep -v '^[[:space:]]*//' | grep -vc '^[[:space:]]*$$'); \
		printf '%6d  %s\n' "$$n" "$$pkg"; \
	done | awk '{ t += $$1; print } END { printf "%6d  total\n", t }'

ci: fmt-check vet bench-module lint build test test-portable race stress flake fuzz-short examples linkcheck
