# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check build vet fmt-check test test-race race chaos train-smoke obs-smoke commit-smoke fuzz-smoke bench-build sim sim-smoke bench experiments examples profile clean

all: check

# The default gate: compile, vet, formatting, full test suite, the race
# detector over the concurrency-heavy networked packages and the GBDT
# trainer's split-search pool (ml, and balancer, which fits in-line), a fast
# scenario-harness smoke, the observability-plane smoke, the
# commit-pipeline smoke, a few seconds of fuzzing per wire and disk decoder, and
# the repository benchmark's own build and unit tests.
check: build vet fmt-check test test-race sim-smoke obs-smoke commit-smoke fuzz-smoke bench-build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any file needs gofmt; prints the offenders.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

test-race:
	$(GO) test -race ./internal/telemetry/... ./internal/rpc/... ./internal/kvstore/... ./internal/lease/... ./internal/mds/... ./internal/replication/... ./internal/server/... ./internal/client/... ./internal/ml/... ./internal/balancer/...

# The failure-injection suites: primary kills mid-write-storm, failover
# promotion, replication gap/overflow resyncs, the migration freeze
# (sibling traffic served, frozen mutations parked across commit and
# abort), and the scenario harness itself — all under the race detector,
# plus the live online learning loop, and twenty rounds of the RPC
# server's worker-pool handoff and Close races. The failover tests are
# thin wrappers over scenarios/kill-primary-{sync,async}.yaml.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Failover|Resync|OnlineLoop|Freeze' ./internal/server/... ./internal/replication/... ./internal/mds/...
	$(GO) test -race -count=1 ./internal/scenario/...
	$(GO) test -race -count=20 -run 'Dispatch|WorkerLimit|Close' ./internal/rpc/...

# The full scenario library (16 files, each a real in-process cluster)
# under its fixed seeds: every run must go green (16/16), and same-seed
# reruns replay their event logs bit for bit.
sim:
	$(GO) run ./cmd/origami-sim run -q scenarios/*.yaml

# The fast subset for `make check`: one real-cluster kill-the-primary
# scenario under sync replication (~2s).
sim-smoke:
	$(GO) run ./cmd/origami-sim run -q scenarios/kill-primary-sync.yaml

# Seconds-long live-cluster smoke of the online learning loop under the
# race detector: skewed load → the self-training Origami balancer's
# labelled window → a fit inside a rebalancing epoch → loadable
# checkpoint, plus the admin RPCs and the warm-start path.
train-smoke:
	$(GO) test -race -count=1 -timeout 120s -run 'OnlineLoop|AdminRPC|WarmStart' ./internal/server/...

# Observability-plane smoke: boot a sync-replicated cluster, issue
# operations, and assert one assembled multi-node trace tree, a merged
# cluster snapshot covering every live MDS, a parseable Prometheus
# scrape, and the component.noun.verb metric vocabulary — plus every
# span-propagation test from the SDK through rpc and the MDS to the WAL,
# and the sampled-write allocation budget.
obs-smoke:
	$(GO) test -count=1 -timeout 120s \
		-run 'ObsSmoke|KeepsItsTrace|TraceID|SampledWrite|TraceContext|TracePropagation|TraceSurvives' \
		./internal/server/... ./internal/telemetry/... ./internal/client/... ./internal/mds/... ./internal/rpc/...

# Commit-pipeline smoke under the race detector: the three durability
# policies end to end on real TCP clusters (batched SDK → multi-op
# frame → atomic shard apply → WAL batch record → per-mode ack), the
# pipeline mode-contract unit tests, and the idempotent replay proof.
commit-smoke:
	$(GO) test -race -count=1 -timeout 120s -run 'CommitSmoke' ./internal/commit/... ./internal/mds/... ./internal/server/...

# The decoders that read bytes off a socket or a disk, against arbitrary
# input: the MethodBatch frame handler on a scratch shard (never panics;
# answers every sub-op or rejects the frame with EINVAL), the SDK's
# batch response decoder and its read-path decoder (the inode list of a
# resolve or readdir response, then the grant and map-version trailer:
# never allocates past its body, returns exactly the encoded names), the
# partition map (SetMap, GetMap and the persisted pin map) and the
# coordinator's per-shard dump (neither allocates past its body), the
# record list every replication append, snapshot chunk
# and migration ingest carries (never panics; a refused body applies
# nothing), the batch envelope codec, and
# the kvstore's SSTable reader (open, get, scan), manifest loader and WAL
# recovery (replay, then a store opened on the log takes a write that
# survives the next crash), and the store itself against a map model
# (put, delete, batch, flush, crash and reopen steps; Get and Scan agree
# with the map after each), and the SDK's lease cache against a map model
# of a directory (listing, patch, drop, observe, expiry and revocation
# steps; every listing it serves is the owner's at the vouching epoch),
# and the scenario-file decoder (never panics; a scenario it accepts is a
# fixed point of Validate, and its timeline resolves without panicking).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzBatchFrame$$' -fuzztime 3s ./internal/mds
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatchResponse$$' -fuzztime 3s ./internal/mds
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMap$$' -fuzztime 3s ./internal/mds
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDump$$' -fuzztime 3s ./internal/mds
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeInodes$$' -fuzztime 3s ./internal/client
	$(GO) test -run '^$$' -fuzz '^FuzzReceiverFrames$$' -fuzztime 3s ./internal/replication
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime 3s ./internal/rpc
	$(GO) test -run '^$$' -fuzz '^FuzzOpenSSTable$$' -fuzztime 3s ./internal/kvstore
	$(GO) test -run '^$$' -fuzz '^FuzzLoadManifest$$' -fuzztime 3s ./internal/kvstore
	$(GO) test -run '^$$' -fuzz '^FuzzReplayWAL$$' -fuzztime 3s ./internal/kvstore
	$(GO) test -run '^$$' -fuzz '^FuzzStoreAgainstMap$$' -fuzztime 3s ./internal/kvstore
	$(GO) test -run '^$$' -fuzz '^FuzzListingCoherence$$' -fuzztime 3s ./internal/lease
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 3s ./internal/scenario

# bench/ is a module of its own, so `go build ./...` at the root cannot
# see an API break there; this can.
bench-build:
	$(GO) vet -C bench .
	$(GO) test -C bench .

# One testing.B benchmark per paper table/figure, plus ablations, the
# per-layer micro-benchmarks (kvstore, rpc, replication, client, ml)
# and the live loopback-cluster ones in internal/server:
# BenchmarkDurableCreate's sync-fsync worker sweep (w1…w128, with ops/s
# and records/fsync) and its sync-repl input, and BenchmarkBalancingEpoch.
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every paper artefact as a text report.
experiments:
	$(GO) run ./cmd/origami-bench -exp all

# Profile the live durable-create path — SDK, rpc, mds, kvstore, WAL and
# fsync over loopback TCP, the shape of the repository benchmark's
# create-storm (BenchmarkDurableCreate's sync-fsync/w2 input): a CPU
# profile, then every allocation site (rate 1, which is why the two are
# separate runs). Then the same pair for the control plane: Origami
# balancing epochs on a 5-MDS cluster taking Trace-RW traffic, the shape
# of trace-rw-balance.
profile:
	$(GO) test -run '^$$' -bench '^BenchmarkDurableCreate$$/^sync-fsync$$/^w2$$' -benchtime 20000x -cpuprofile cpu.pprof ./internal/server
	$(GO) test -run '^$$' -bench '^BenchmarkDurableCreate$$/^sync-fsync$$/^w2$$' -benchtime 20000x -memprofile allocs.pprof -memprofilerate 1 ./internal/server
	$(GO) test -run '^$$' -bench '^BenchmarkBalancingEpoch$$' -benchtime 60x -cpuprofile epoch-cpu.pprof ./internal/server
	$(GO) test -run '^$$' -bench '^BenchmarkBalancingEpoch$$' -benchtime 60x -memprofile epoch-allocs.pprof -memprofilerate 1 ./internal/server
	@echo "next: $(GO) tool pprof -top server.test cpu.pprof"
	@echo "      $(GO) tool pprof -sample_index=alloc_objects -top server.test allocs.pprof"
	@echo "      $(GO) tool pprof -tagfocus plane=control -top server.test epoch-cpu.pprof"
	@echo "      $(GO) tool pprof -sample_index=alloc_objects -focus 'RunEpoch|handleDump' -top server.test epoch-allocs.pprof"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/compilejob
	$(GO) run ./examples/webtrace
	$(GO) run ./examples/tcpcluster
	$(GO) run ./examples/trainloop

clean:
	$(GO) clean ./...
