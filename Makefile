GO ?= go
FUZZTIME ?= 5s
# perf harness knobs (DESIGN.md §11): `make perf` writes its report to
# PERF_OUT, which has no default (name the snapshot, e.g.
# PERF_OUT=BENCH_PR<N>.json, so a bare run cannot overwrite a committed
# one); PERF_BASELINE is the baseline `make perfcheck` judges against.
PERF_BASELINE ?= results/perf/baseline.json

.PHONY: build test race raceserve vet allocgate fuzz soak check bench tools clean \
	perf perfcheck profiles docscheck trace-demo

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# raceserve is the serving-layer race gate: the batcher/admission
# concurrency machinery, the router/migration machinery, and the
# end-to-end load tests (single-process and cluster), all under the
# race detector (the CI job of the same name).
raceserve:
	$(GO) test -race -count 1 ./internal/serve/... ./internal/core/... ./internal/cluster/...

vet:
	$(GO) vet ./...

# allocgate pins the hot-path allocation budgets (alloc_test.go). It must
# run without -race: the race runtime allocates on the code's behalf, so
# the gates skip themselves under it.
allocgate:
	$(GO) test -run 'TestHeuristicMatchZeroAllocs|TestMatchBatchZeroAllocs|TestLocalizeGroupAllocBudget|TestServeLocalizeAllocBudget|TestServeIngestAllocBudget|TestSplitAllocBudget|TestTraceNilPathZeroAllocs' -count 1 -v .

# fuzz runs every native fuzz target for FUZZTIME each (one -fuzz
# invocation per target: go test allows a single fuzz target per run).
fuzz:
	$(GO) test -fuzz FuzzVectorDiff -fuzztime $(FUZZTIME) ./internal/vector/
	$(GO) test -fuzz FuzzSimilarity -fuzztime $(FUZZTIME) ./internal/vector/
	$(GO) test -fuzz FuzzGroupVector -fuzztime $(FUZZTIME) ./internal/sampling/
	$(GO) test -fuzz FuzzHeuristicMatch -fuzztime $(FUZZTIME) ./internal/match/
	$(GO) test -fuzz FuzzMatchBatchEquivalence -fuzztime $(FUZZTIME) ./internal/match/
	$(GO) test -fuzz FuzzByzQuorumVote -fuzztime $(FUZZTIME) ./internal/byz/
	$(GO) test -fuzz FuzzSourceMatchesStdlib -fuzztime $(FUZZTIME) ./internal/randx/
	$(GO) test -fuzz FuzzDecodeReport -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz FuzzDecodeLocalize -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz FuzzLoad -fuzztime $(FUZZTIME) ./internal/field/

# soak is the long-running serving load test (minutes, race-enabled);
# not part of check.
soak:
	$(GO) test -race -tags soak -count 1 -run TestLoadSoak -v ./internal/serve/loadtest

# docscheck is the documentation gate: vet, the package-doc-comment
# audit, and the runnable facade examples.
docscheck:
	$(GO) vet ./...
	$(GO) test -run 'TestPackageDocComments|TestMissingPackageDocsDetects|Example' -count 1 ./...

# check is the full local gate: what CI runs.
check: vet build race raceserve allocgate fuzz docscheck

bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# perf runs the full-depth perfbench suite and writes $(PERF_OUT); use
# it to seed the per-PR trajectory: make perf PERF_OUT=BENCH_PR<N>.json.
perf:
	@test -n "$(PERF_OUT)" || { echo "make perf: set PERF_OUT (e.g. make perf PERF_OUT=BENCH_PR<N>.json)" >&2; exit 2; }
	$(GO) run ./cmd/fttt-perf run -o $(PERF_OUT)

# perfcheck is the regression gate: run the suite at smoke depth and
# diff against the committed baseline with noise-tolerant thresholds
# (exit 2 on regression). Regenerate the baseline with
# `go run ./cmd/fttt-perf baseline` after an intended perf change.
perfcheck:
	$(GO) run ./cmd/fttt-perf compare -baseline $(PERF_BASELINE)

# profiles captures per-scenario cpu/heap pprof profiles into
# results/perf/profiles/ (quick repetitions; the report goes to stdout
# and is discarded).
profiles:
	$(GO) run ./cmd/fttt-perf run -quick -profiles results/perf/profiles > /dev/null

# trace-demo produces a Perfetto-loadable flight recording from a
# seeded faulted run: load results/trace/demo.trace.json into
# https://ui.perfetto.dev (or chrome://tracing) to walk the span trees.
trace-demo:
	mkdir -p results/trace
	$(GO) run ./cmd/fttt-sim -seed 7 -duration 20 -starfrac 0.6 \
		-faults 'crash at=3 frac=0.3 recover=8; drift sigma=0.05; skew max=0.01' \
		-trace results/trace/demo.jsonl > /dev/null
	$(GO) run ./cmd/fttt-trace chrome results/trace/demo.jsonl -o results/trace/demo.trace.json
	@echo "trace-demo: results/trace/demo.trace.json (load in https://ui.perfetto.dev)"

tools:
	$(GO) build -o bin/ ./cmd/...

clean:
	rm -rf bin
