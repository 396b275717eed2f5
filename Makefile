# Shared developer / CI entry points. CI (.github/workflows/ci.yml) runs
# exactly these targets so local `make ci` reproduces the gate.

GO ?= go

.PHONY: build test race bench-check fuzz-smoke bench-smoke bench-kernels bench-attack vet cross fmt-check lint loc deadcode cache-gate e2e-remote e2e-chaos e2e-resultplane e2e-ha ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race smoke on the concurrent packages: the engine scheduler/executor,
# sharded state and disk cache, the remote worker server/client, the job
# broker and its wire types, the record log under the journal, cache
# and plane, the result-plane store, the worker-budget semaphore and
# the parallel tensor/nn kernels it feeds, the BFA search that runs
# those kernels and the rowhammer engine it drives, plus the trace
# replay layer. The second line adds
# the experiments' victim memo, which concurrent jobs of a registration
# share: its single-flight, cancellation, copy and per-registration
# tests at a shrunk preset (the whole experiments package would train
# for minutes under the race detector).
race:
	$(GO) test -race ./internal/engine/... ./internal/remote/ \
		./internal/queue/ ./internal/api/ ./internal/trace/ \
		./internal/wal/ ./internal/resultplane/ \
		./internal/par/ ./internal/tensor/ ./internal/nn/ \
		./internal/attack/ ./internal/rowhammer/
	$(GO) test -race ./internal/experiments/ \
		-run '^TestVictimMemo(TrainsOnce|SurvivesCancelledOwner|CopiesAreIndependent|PerRegistration)$$'

# The benchmark (bench/, dlbench) is a module of its own, so the root
# `go test ./...` never builds it. Vet and test it here, so a change to
# an API it imports fails the gate instead of the next benchmark run.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Ten seconds of native fuzzing per decoder. FuzzReplay covers
# internal/wal's replay and atomic replace: never panics, strict fails
# exactly where lenient skips, and a rewritten record list replays
# unchanged. FuzzDecodeError covers the network error decoder every
# remote and plane client failure goes through: never panics, typed
# exactly when the body holds a coded api.Error, and WriteError's
# output fits the bound DecodeError reads and decodes back unchanged
# (a message over 512 bytes cut to a prefix). FuzzFetch covers the
# result-plane client's entry decode: never panics, a hit only for a
# 200 entry with the client's version, the requested key and no error,
# a typed not_found a clean miss, any other refusal an error. FuzzAssemble
# covers internal/isa's assembler behind dlasm: never panics, and an
# accepted program re-assembles from its disassembly and survives
# encode/decode unchanged. FuzzParse covers internal/trace's text
# reader behind tracegen: never panics, and an accepted trace re-parses
# unchanged from its written form. FuzzJournalReplay covers the broker
# journal's segments under internal/queue's OpenJournal and replay:
# never panics, and a journal the broker just compacted reopens to the
# same jobs, task states, results and epoch. Its executions fsync
# several files each, so it minimizes a new input for at most 1 s: at
# the default 60 s the whole run goes into minimizing the first one.
# FuzzPlaneOpen covers the result-plane store's reload of plane.jsonl:
# never panics, every loaded entry has a key and data, the metrics
# agree with the entries, and a closed store reopens to the same
# entries; its executions write files too. FuzzBrokerRequest sends one
# body to one of the broker's POST routes, each decoded by internal/remote's
# readJSON, through a fresh in-memory broker with a worker, a job and a
# lease: never panics, a 200 body is valid JSON, and any other reply
# decodes to a typed api.Error. Each of its executions builds a broker
# and may wait out a 5 ms long poll, so minimizing one input at the
# default 60 s can take the whole run: it gets 1 s. FuzzLoadPlan covers
# internal/faultinject's LoadPlan: never panics, an accepted plan
# re-marshals and reloads equal, and its Injector evaluates a fixed
# set of fault points without panicking; its executions write a file,
# so it minimizes for 1 s too. FuzzQueueReply answers internal/remote's
# queue clients from an in-memory transport: one status code and body
# for batch submit, job status and poll, valid replies elsewhere. A
# QueueExecutor runs one task and a PullWorker works leases under a
# 20 ms context: neither panics, and Execute returns an error or a
# result that passes Validate. Each execution waits out that context,
# so it minimizes for 1 s as well.
fuzz-smoke:
	$(GO) test ./internal/wal/ -run '^$$' -fuzz '^FuzzReplay$$' -fuzztime 10s
	$(GO) test ./internal/remote/ -run '^$$' -fuzz '^FuzzDecodeError$$' -fuzztime 10s
	$(GO) test ./internal/resultplane/ -run '^$$' -fuzz '^FuzzFetch$$' -fuzztime 10s
	$(GO) test ./internal/isa/ -run '^$$' -fuzz '^FuzzAssemble$$' -fuzztime 10s
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s
	$(GO) test ./internal/queue/ -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/resultplane/ -run '^$$' -fuzz '^FuzzPlaneOpen$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/remote/ -run '^$$' -fuzz '^FuzzBrokerRequest$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/faultinject/ -run '^$$' -fuzz '^FuzzLoadPlan$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/remote/ -run '^$$' -fuzz '^FuzzQueueReply$$' -fuzztime 10s -fuzzminimizetime 1s

# Loopback end-to-end gate for the remote executors: boots dramlockerd
# on 127.0.0.1 in both topologies — push worker (-remote) and job-queue
# broker with a pull worker (-broker) — runs the tiny preset through
# each at workers 1 and 4, and asserts the reports are byte-identical to
# local runs (plus warm -require-cached replays over shared -cache-dirs).
# Ends with the crash-recovery leg: a journaled broker is SIGKILLed
# mid-run, restarted over its journal, and the run must finish
# byte-identical anyway.
e2e-remote:
	bash scripts/e2e_remote.sh

# Chaos soak gate: the tiny preset through a fault-injected broker
# (dropped polls, dropped + delayed done reports), a 1 KiB journal
# budget forcing live rotation and background compaction, a 2 tasks/s
# rate limit the scheduler must wait out, and a SIGKILLed worker whose
# leases a second worker drains. The report must stay byte-identical to
# local; afterwards the script audits that every hazard actually fired,
# that retries stayed bounded (the exit receipt's backoff_total), that
# the broker leaked no goroutines, and that restarts replay the rotated
# (and torn-tail) journal correctly. Also enforces the unified-backoff
# contract: no bare time.Sleep retry loops in internal/remote.
e2e-chaos:
	bash scripts/e2e_chaos.sh

# Result-plane gate: a standalone plane daemon is populated by one cold
# run, then a fresh -cache-dir run must pass -require-cached purely
# from the plane, a plane-attached pull worker must serve a queue run
# without recomputing anything, and a broker co-hosting the plane must
# complete a submitted job with zero leases (every task finished from
# the plane at submit time). All reports byte-identical to local.
e2e-resultplane:
	bash scripts/e2e_resultplane.sh

# Broker high-availability gate: a hot standby replicates the primary's
# journal over /v2/replicate; the primary is SIGKILLed mid-run with a
# live backlog and the run must finish byte-identical to local through
# both takeover paths — explicit promotion (dramlocker -promote) and the
# -takeover-after silence timer. A third leg restarts the dead primary
# as a zombie and requires the new primary's fencer to flip it into a
# read-only replica whose late mutations are refused with a typed
# not_leader redirect. Audits: backlog fully drained, no replication
# entries skipped, fencing epoch durable across restarts.
e2e-ha:
	bash scripts/e2e_ha.sh

# Persistent result cache gate: a cold tiny-preset run populates the
# on-disk cache, the warm run must serve 100% from it and render a
# byte-identical normalised report (CI runs exactly this script).
cache-gate:
	bash scripts/cache_gate.sh

# Static analysis, pinned so CI and laptops agree. staticcheck is
# fetched on demand by `go run`. With CI set (GitHub Actions sets
# CI=true) the pinned tool runs directly, so a tool that cannot be
# fetched fails the step. Elsewhere the probe runs with GOPROXY=off: it
# sends no module request and finds staticcheck only in the local
# module cache; without it lint skips with a note, so an offline
# `make ci` neither reaches for the network nor breaks.
STATICCHECK := honnef.co/go/tools/cmd/staticcheck@2025.1.1
lint:
	@if [ -n "$(CI)" ]; then \
		$(GO) run $(STATICCHECK) ./...; \
	elif GOPROXY=off $(GO) run $(STATICCHECK) -version >/dev/null 2>&1; then \
		GOPROXY=off $(GO) run $(STATICCHECK) ./...; \
	else \
		echo "lint: $(STATICCHECK) not in the module cache (probed with GOPROXY=off); skipping"; \
	fi

# One iteration of every benchmark outside the compute-kernel and
# attack-layer packages (regenerates the paper tables without timing
# noise mattering); the tensor/nn kernels are bench-kernels' job and the
# attack/trace hot paths are bench-attack's, so each benchmark lands in
# the artifact exactly once. Set BENCH_JSON=<file> to also record the
# run as go-test JSON events — CI uploads that file as the BENCH_*.json
# perf-trend artifact, with bench-kernels and bench-attack appending to
# it.
BENCH_JSON ?=
BENCH_SMOKE_PKGS = $$($(GO) list ./... | grep -v -e /internal/tensor -e /internal/nn \
	-e /internal/attack -e /internal/trace -e /internal/memmap)
bench-smoke:
ifeq ($(BENCH_JSON),)
	$(GO) test -bench=. -benchtime=1x -run='^$$' $(BENCH_SMOKE_PKGS)
else
	$(GO) test -json -bench=. -benchtime=1x -run='^$$' $(BENCH_SMOKE_PKGS) > $(BENCH_JSON)
	@echo "bench JSON written to $(BENCH_JSON)"
endif

# Compute-kernel microbenchmarks (tensor GEMM/im2col, nn train-step,
# inference, ReLU, max-pool and BatchNorm) with allocation stats: the
# serial/parallel GEMM pairs track multi-core throughput, and the
# allocs/op of BenchmarkTrainStep*, BenchmarkReLU, BenchmarkMaxPool2,
# BenchmarkBatchNorm and the one-core vector weight-gradient GEMMs
# (BenchmarkConvGEMM/weight-grad*/vector/budget1) track the zero-alloc
# path. With BENCH_JSON set, events append to the same BENCH_<sha>.json
# artifact the CI bench job uploads.
bench-kernels:
ifeq ($(BENCH_JSON),)
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' ./internal/tensor/ ./internal/nn/
else
	$(GO) test -json -bench=. -benchmem -benchtime=1x -run='^$$' ./internal/tensor/ ./internal/nn/ >> $(BENCH_JSON)
	@echo "kernel bench JSON appended to $(BENCH_JSON)"
endif

# Attack/sim hot-path microbenchmarks with allocation stats: the BFA
# search iteration and candidate selection, the victim's sync from DRAM
# after a hammer (the allocs/op of BenchmarkBFASearchIter,
# BenchmarkRankCandidates and BenchmarkSyncFromDRAM are zero-alloc
# gates) and trace replay over the dense DRAM-sim state
# (BenchmarkReplayDense).
# With BENCH_JSON set, events append to the same BENCH_<sha>.json
# artifact as bench-smoke and bench-kernels.
bench-attack:
ifeq ($(BENCH_JSON),)
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' ./internal/attack/ ./internal/trace/ ./internal/memmap/
else
	$(GO) test -json -bench=. -benchmem -benchtime=1x -run='^$$' ./internal/attack/ ./internal/trace/ ./internal/memmap/ >> $(BENCH_JSON)
	@echo "attack bench JSON appended to $(BENCH_JSON)"
endif

vet:
	$(GO) vet ./...

# Vet for arm64 as well. internal/tensor's GEMMs run AVX2 tile kernels
# from assembly on amd64 and the scalar kernels everywhere else, behind a
# stub the amd64 build never compiles; this keeps that stub building on
# amd64-only CI runners. The amd64 `vet` checks the assembly's frame
# offsets against its Go declarations (asmdecl).
#
# Then fail on any fused multiply-add in the arm64 build. The Go spec
# lets a compiler fuse x*y + z into one instruction that rounds once,
# and arm64's does, where amd64 rounds the product and the sum apart;
# payloads computed on the two would then differ under the same cache
# key. Every such product is written float32(x*y) (float64 for
# doubles), whose explicit rounding forbids the fusion. The compiler's
# -S listing is replayed from the build cache, so a warm build still
# checks.
FUSED_OPS = '\s(FMADD|FMSUB|FNMADD|FNMSUB)[SD]\s'
cross:
	GOARCH=arm64 $(GO) vet ./...
	@GOARCH=arm64 $(GO) build ./...
	@if GOARCH=arm64 $(GO) build -gcflags=-S ./... 2>&1 | grep -E $(FUSED_OPS); then \
		echo "cross: fused multiply-add in the arm64 build (above); round the product explicitly"; exit 1; fi

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Non-test Go line counts, the figure every PR states its net delta in:
# per package under internal/ and cmd/, their total, and the distributed
# substrate's share (scripts/loc.sh). With BASE=<rev> each line also
# shows the count at that git revision and the delta. It reports only;
# nothing fails on the numbers.
loc:
	@bash scripts/loc.sh $(BASE)

# Functions declared under internal/ that no main package links (cmd/*,
# examples/* and bench/'s dlbench, built with inlining off). The list
# must equal scripts/deadcode.allow: each entry there is read or
# injected by a test of live code, required by an interface, or a
# Stringer. A function that falls out of every binary fails the gate
# until the PR deletes it or adds it to the allow file, so every new
# entry shows up in the diff; one that a binary links again fails it
# until its line leaves the file.
deadcode:
	@out=$$(bash scripts/deadcode.sh) && \
	if ! printf '%s\n' "$$out" | diff -u scripts/deadcode.allow -; then \
		echo "deadcode: the unlinked functions (+) differ from scripts/deadcode.allow (-)"; exit 1; fi

ci: vet cross fmt-check lint build test race bench-check fuzz-smoke deadcode e2e-remote e2e-chaos e2e-resultplane e2e-ha cache-gate
