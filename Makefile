# Standard targets; `make ci` is what the checks run.

GO ?= go

.PHONY: build test vet race examples depguard surface bench bench-e2e bench-kernel bench-cluster bench-overload bench-recycle bench-tiered soak-store soak-cluster soak-overload fuzz-wire fuzz-peer fuzz-codec fmt lint cover chaos ci FORCE

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 100x -run XXX .

# bench-e2e smoke-runs the repo's one yardstick (benchmark/, its own Go
# module; BENCHMARK.json names the workloads and metrics): all four
# workloads through real sockets at tiny scale with 1 s windows. For
# numbers, run `bash benchmark/run.sh` at the default scale and window.
bench-e2e:
	bash benchmark/run.sh -scale tiny -seconds 1

# bench-kernel runs the kernels' Go micro-benchmarks with allocation
# reporting. Aggregation kernel: BenchmarkRollUpKernel (all base chunks of
# the tiny-scale table into the top chunk) and, in internal/chunk,
# BenchmarkRollUp* (one roll-up; flattened vs hop-by-hop multi-hop),
# BenchmarkCellMap* (accumulator sweeps at three occupancies),
# BenchmarkGridSlice/GridSliceFull (half and full-region slices) and
# BenchmarkCodecDecode (the cold-tier decode, whose ns/cell over the
# roll-up's ns/tuple prices cold reads in the cache's budget split). Backend
# scan: BenchmarkComputeChunks (ns/tuple over a seeded mix of group-bys at
# medium scale). VCMC maintenance: BenchmarkVCMCMaintenance (insert/evict
# cycles on the medium grid, ns per count/cost update). Cold eviction:
# BenchmarkColdEvict (a full cold tier at 64 and 4,096 residents, the victim
# heap against a linear scan). The kernels' end-to-end numbers are the
# yardstick's rollup_hit and churn_miss workloads.
bench-kernel:
	$(GO) test ./internal/chunk -run XXX -bench 'RollUp|CellMap|GridSlice|CodecDecode' -benchmem -benchtime 20000x | tee kernel_bench.txt
	$(GO) test . -run XXX -bench 'RollUpKernel' -benchmem -benchtime 20000x | tee -a kernel_bench.txt
	$(GO) test ./internal/backend -run XXX -bench 'ComputeChunks' -benchmem -benchtime 2000x | tee -a kernel_bench.txt
	$(GO) test ./internal/strategy -run XXX -bench 'VCMCMaintenance' -benchmem -benchtime 20000x | tee -a kernel_bench.txt
	$(GO) test ./internal/cache -run XXX -bench 'ColdEvict' -benchmem -benchtime 20000x | tee -a kernel_bench.txt

# The four gated experiments below write their floor verdicts into their
# BENCH JSON and fail (aggbench exits 1) when any floor does not hold.

# bench-cluster sweeps the distributed cache tier from 1 to 4 cooperating
# nodes on the proximity-heavy mix (writes BENCH_7.json; gates qps and group
# hit rate monotone in the node count).
bench-cluster:
	$(GO) run ./cmd/aggbench -scale small -exp cluster

# bench-overload sweeps offered load past the admission controller's
# measured capacity and demonstrates tenant-quota fairness (writes
# BENCH_8.json; gates goodput at 2× overload ≥ 80% of 1×, bounded admitted
# p99, and quota fairness).
bench-overload:
	$(GO) run ./cmd/aggbench -scale tiny -exp overload

# bench-recycle compares benefit-driven recycling of intermediate aggregates
# (with promote-on-reuse) against the plain engine on drill/jump and
# proximity mixes (writes BENCH_9.json; gates the drill-mix qps and hit
# rate with recycling on >= off and proximity qps >= 90% of off).
bench-recycle:
	$(GO) run ./cmd/aggbench -scale medium -exp recycle -queries 200

# bench-tiered measures the tiered store against the flat store at equal
# hot-tier RAM, plus the kill/restart warm-recovery ratio (writes
# BENCH_10.json; gates tiered hit >= ram hit, recovery >= 80%, qps
# penalty <= 10%).
bench-tiered:
	$(GO) run ./cmd/aggbench -scale small -exp tiered -queries 200

# fuzz-codec smoke-fuzzes the chunk codec, the one cell encoding (cold tier,
# snapshot log, backend and peer replies): arbitrary bytes must never panic
# or over-allocate, and whatever decodes must re-encode canonically.
fuzz-codec:
	$(GO) test ./internal/chunk -run XXX -fuzz FuzzChunkCodec -fuzztime 10s

# fuzz-wire smoke-fuzzes the frame reader, the framed chunk decoder and the
# backend protocol's payload decoders: malformed input must never panic or
# over-allocate, and whatever decodes must re-encode identically.
fuzz-wire:
	$(GO) test ./internal/wire -run XXX -fuzz FuzzFrame -fuzztime 10s
	$(GO) test ./internal/wire -run XXX -fuzz FuzzChunkDecode -fuzztime 10s
	$(GO) test ./internal/backend -run XXX -fuzz FuzzBackendFrame -fuzztime 10s

# fuzz-peer smoke-fuzzes the middle tier's protocol decoders the same way:
# the peer cache payloads (PeerGet/PeerChunk) and the client answer frame.
fuzz-peer:
	$(GO) test ./internal/mtier -run XXX -fuzz FuzzPeerFrame -fuzztime 10s
	$(GO) test ./internal/mtier -run XXX -fuzz FuzzAnswerFrame -fuzztime 10s

# soak-store runs the local store's concurrency suites under the race
# detector: the striped hot tier (the cache-level invariant soak plus the
# engine-level soak whose 4-stripe subject must match a serialized
# one-stripe reference) and its cold tier (demote/evict races, overlapping
# cold pins against cold lookups and inserts, byte-accounting and
# dual-residency invariants, the engine's pin -> plan -> answer path and the
# peer protocol's cold reads), and the one budget both tiers share (its byte
# bounds while the boundary moves both ways under concurrent traffic, and
# the boundary's convergence).
soak-store:
	$(GO) test -race -count=1 -run 'Sharded|ShardDistribution|StoreStats|ConcurrentSoak|EngineConcurrent|Tiered|Snapshot|Cold|Budget' ./internal/cache ./internal/core ./internal/mtier

# soak-cluster runs the 3-node in-process cluster under the race detector
# with one fault-injected peer: every query must still be served.
soak-cluster:
	$(GO) test -race -run 'ClusterSoak' ./internal/mtier -count=1 -v

# soak-overload storms an under-provisioned server with hostile traffic
# (Zipf convoy, deadline-bound flash crowd, quota-capped scan flood) under
# the race detector: every failure must be an in-band transient shed, no
# query may run past its deadline, and the server must serve again after.
soak-overload:
	$(GO) test -race -run 'OverloadSoak' ./internal/mtier -count=1 -v

# Full aggbench reports are regenerated on demand, never committed:
# `make results_small.txt` (or _medium/_full).
results_%.txt: FORCE
	$(GO) run ./cmd/aggbench -scale $* -exp all | tee $@

FORCE:

# fmt fails (and lists the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# lint is fmt + vet, plus staticcheck and govulncheck when installed (CI
# installs both; a bare checkout degrades gracefully).
lint: fmt vet
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; else echo "govulncheck not installed; skipping"; fi

# cover writes the profile to a temp path (RUNNER_TEMP on CI) so a stray
# cover.out never lands in the worktree.
COVERFILE ?= $(or $(RUNNER_TEMP),/tmp)/cover.out
cover:
	$(GO) test -coverprofile=$(COVERFILE) ./...
	$(GO) tool cover -func=$(COVERFILE) | tail -1

# chaos runs the fault-injection suite under the race detector — both users
# of the one circuit (backend.Breaker and the Peered peers) and of the one
# exchange (Remote and PeerClient) included — and the availability
# experiment end to end.
chaos:
	$(GO) test -race -run 'Chaos|Degraded|Flight|Breaker|Faulty|Remote|Malformed|Peered|Exchange' ./internal/core ./internal/backend ./internal/mtier ./internal/cache
	$(GO) run ./cmd/aggbench -scale tiny -exp chaos

# examples runs the four examples end to end; each must exit 0.
examples:
	@for ex in quickstart dashboard policies threetier; do \
		echo "== examples/$$ex"; $(GO) run ./examples/$$ex || exit 1; \
	done

# depguard fails when a daemon links experiment code: aggcached and olapcli
# build their stack with core.Build, never through internal/bench, and serve
# only the middle tier's strategies, never the exhaustive paper baselines.
depguard:
	@bad="$$($(GO) list -deps ./cmd/aggcached ./cmd/olapcli | grep -xE 'aggcache/internal/(bench|strategy/exhaustive)')"; \
	if [ -n "$$bad" ]; then \
		echo "depguard: cmd/aggcached or cmd/olapcli depends on" $$bad; exit 1; \
	fi

# surface prints the size of each product package: exported package-level
# names (go doc -short lines), exported methods and non-test Go lines; then
# the non-test Go lines of the whole module outside benchmark/, and each
# daemon's flag count (the flags its -h lists).
surface:
	@for p in cache core strategy backend chunk workload mtier obs sizer lattice wire; do \
		printf '%-9s %3d names %3d methods %5d lines\n' $$p \
			"$$($(GO) doc -short ./internal/$$p | wc -l)" \
			"$$($(GO) doc -all ./internal/$$p | grep -c '^func (')" \
			"$$(ls internal/$$p/*.go | grep -v '_test\.go$$' | xargs cat | wc -l)"; \
	done
	@printf '%-9s %5d lines (non-test Go outside benchmark/)\n' total \
		"$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l)"
	@for c in aggcached backendd olapcli; do \
		printf '%-9s %3d flags\n' $$c "$$($(GO) run ./cmd/$$c -h 2>&1 | grep -c '^  -')"; \
	done

# ci also vets and smoke-tests benchmark/, which is its own Go module:
# `go build ./... && go test ./...` from the root never compiles it, so an API
# break there would otherwise show only when the benchmark itself is run.
ci: lint race cover examples depguard
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...
