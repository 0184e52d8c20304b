# MINDFUL-Go developer targets.
#
# `make check` is the tier-1.5 gate: everything tier-1 runs
# (build + tests) plus vet, gofmt drift, the race detector (which covers
# the fleet determinism wall), and a short fuzz smoke of the frame parser
# and Rice codec.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test check fmt vet race bench fuzz-smoke fault-smoke serve-smoke decode-smoke obs-smoke cluster-smoke chaos-smoke drift-smoke batch-smoke bench-smoke determinism clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

race:
	$(GO) test -race ./...

# The fleet determinism wall on its own (also part of `race`): the same
# seed must be byte-identical for every worker count.
determinism:
	$(GO) test -race -run 'TestFleet(DeterminismWall|Modulations|SeedSensitivity)' -v ./internal/fleet/

# Native Go fuzzing, ~$(FUZZTIME) per target: the comm frame parser and
# packing round trips, and the dsp Delta–Rice codec.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParsePacket -fuzztime $(FUZZTIME) ./internal/comm/
	$(GO) test -run '^$$' -fuzz FuzzPackSamples -fuzztime $(FUZZTIME) ./internal/comm/
	$(GO) test -run '^$$' -fuzz FuzzBitsBytes -fuzztime $(FUZZTIME) ./internal/comm/
	$(GO) test -run '^$$' -fuzz FuzzFECDecode -fuzztime $(FUZZTIME) ./internal/comm/
	$(GO) test -run '^$$' -fuzz FuzzARQReorder -fuzztime $(FUZZTIME) ./internal/comm/
	$(GO) test -run '^$$' -fuzz FuzzDeltaRiceDecode -fuzztime $(FUZZTIME) ./internal/dsp/
	$(GO) test -run '^$$' -fuzz FuzzDeltaRiceRoundTrip -fuzztime $(FUZZTIME) ./internal/dsp/
	$(GO) test -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime $(FUZZTIME) ./internal/serve/checkpoint/
	$(GO) test -run '^$$' -fuzz FuzzDecodeCheckpointV2 -fuzztime $(FUZZTIME) ./internal/serve/checkpoint/
	$(GO) test -run '^$$' -fuzz FuzzDriftCheckpointV3 -fuzztime $(FUZZTIME) ./internal/serve/checkpoint/
	$(GO) test -run '^$$' -fuzz FuzzInstabilityMetric -fuzztime $(FUZZTIME) ./internal/drift/
	$(GO) test -run '^$$' -fuzz FuzzDecoderStep -fuzztime $(FUZZTIME) ./internal/decode/
	$(GO) test -run '^$$' -fuzz FuzzEventLogDecode -fuzztime $(FUZZTIME) ./internal/obs/
	$(GO) test -run '^$$' -fuzz FuzzMigrationDecode -fuzztime $(FUZZTIME) ./internal/cluster/wire/

# Fault-injection smoke: the fault package's unit tests, the clean-path
# digest pin (fault machinery disabled must stay byte-identical to the
# recorded pre-fault baseline) and the degradation-sweep invariants.
fault-smoke:
	$(GO) test ./internal/fault/
	$(GO) test -run 'TestCleanPathDigestPin|TestFaultSweep|TestRecoveryImprovesDelivery' ./internal/fleet/

# Serving smoke: boot a gateway, create a session over the control plane,
# stream its frames over the data plane, snapshot, restore with an
# extended tick target and assert the continued digest is bit-identical
# to an uninterrupted run; hold paced sessions to their fixed-rate tick
# schedule (nominal time, no burst after a pause) — plus the checkpoint
# determinism wall, all under the race detector.
serve-smoke:
	$(GO) test -race -run 'TestServeSmoke|TestPauseResumeSnapshot|TestShutdownDrainsSnapshots|TestTickSchedulePace' ./internal/serve/
	$(GO) test -race -run 'TestCheckpointResume|TestRestoreContinuesBitIdentically' ./internal/fleet/ ./internal/serve/checkpoint/

# Decode smoke: a tiny fleet run per decoder kind, digest-chained — the
# frame digest must be byte-identical with and without the decoder, the
# decode digest worker-invariant, and a mid-run checkpoint must resume
# bit-identically with decoder temporal state — plus the v1 golden blob
# under the v2 codec and the gateway-layer decoded stream.
decode-smoke:
	$(GO) test -race -run 'TestDecode|TestCheckpointResumeWithDecoder|TestSessionDecoderDeterministic' ./internal/fleet/
	$(GO) test -race -run 'TestGoldenV1|TestRoundTripWithDecoder|TestRestoreContinuesBitIdenticallyWithDecoder' ./internal/serve/checkpoint/
	$(GO) test -race -run 'TestDecodedStream|TestGatewayRestoreWithDecoder|TestDefaultDecoderApplied' ./internal/serve/
	$(GO) test -run 'TestResetEqualsFresh|TestDecoderStepZeroAlloc' ./internal/decode/

# Observability smoke: the flight recorder's guarantees — stage timing
# is digest-neutral and covers all four stages (BENCH_stage.json), the
# disabled path costs under 0.5% of a tick (BENCH_obs.json), the event
# log survives wraparound and round-trips canonically, and the serve
# lifecycle/fault narration fires — under the race detector where the
# recorder runs concurrently.
obs-smoke:
	$(GO) test -run 'TestStageProfileBaseline|TestObserverOverheadBaseline' . -update
	$(GO) test -race -run 'TestEventLog|TestEventRoundTrip|TestEventJSONCanonical|TestDecodeEventErrors|TestStageTimer|TestHistogramQuantile|TestExportGoldenFiles|TestTracerWraparoundSustained' ./internal/obs/
	$(GO) test -race -run 'TestStageTiming|TestRunProfile' ./internal/fleet/
	$(GO) test -race -run 'TestReadyz|TestSessionStatsEndpoint|TestStatsDeliveryLatency|TestLifecycleEvents|TestFaultPathEvents' ./internal/serve/

# Cluster smoke: the ring property tests (uniformity + minimal
# disruption), the migration determinism wall (every decoder kind,
# bit-identical digests across a live mid-run migration), the chaos
# kill/restore regression (SIGKILL-equivalent shard death, checkpoint
# recovery, split-brain guard), and the drain-readyz contract — all
# under the race detector — then a 3-shard self-hosted run with one
# migration and one kill/restore, digest-checked, emitting
# BENCH_cluster.json.
cluster-smoke:
	$(GO) test -race -run 'TestRing|TestMigration|TestMigrate|TestConcurrentMigrations|TestSubscriberFollowsMigration|TestChaos|TestCluster' ./internal/cluster/
	$(GO) test -race -run 'TestExportImport|TestImportRejects|TestReadyzDraining|TestSubscribeMoved|TestKillIsAbrupt' ./internal/serve/
	$(GO) run ./cmd/mindful cluster -shards 3 -sessions 9 -subs 1 -ticks 150 -migrations 1 -kill -verify -out BENCH_cluster.json

# Chaos-hardening smoke: the deterministic fault-injection primitives
# (CRN monotonicity, per-op isolation, proxy fates), the durable
# checkpoint store's corruption table, the chaos determinism wall
# (seeded control-plane faults, janitor convergence to exactly one copy
# per key, bit-identical digests) and the front-tier restart recovery —
# all under the race detector — then a short chaos sweep across four
# intensities emitting BENCH_chaos.json.
chaos-smoke:
	$(GO) test -race ./internal/chaosnet/ ./internal/cluster/store/
	$(GO) test -race -run 'TestChaosDeterminismWall|TestChaosWallFaultFreePins|TestFrontTierRestartRecovers|TestRecoverShard' ./internal/cluster/
	$(GO) run ./cmd/mindful cluster -shards 3 -sessions 8 -subs 1 -ticks 120 -migrations 2 -kill -chaos-sweep -chaos-seed 1 -chaos-intensities 0,0.5,1,2 -chaos-out BENCH_chaos.json

# Nonstationarity smoke: the drift package's unit tests, the
# intensity-0 digest pin (attaching the drift subsystem at zero scale
# must stay byte-identical to a drift-free run), the adaptive
# determinism wall and checkpoint resume (under the race detector via
# `race`), the frozen-vs-adaptive sweep sanity, the v3 codec round trip
# over the committed v1/v2 goldens, and the migration-mid-refit wall.
drift-smoke:
	$(GO) test ./internal/drift/
	$(GO) test -run 'TestDriftZeroIntensityDigestPin|TestDriftChangesFrameDigest|TestAdaptFrameDigestInvariant|TestDriftSweep' ./internal/fleet/
	$(GO) test -race -run 'TestAdaptDeterminismWall|TestCheckpointResumeAdaptive|TestRestoreRejectsDriftMismatch' ./internal/fleet/
	$(GO) test -race -run 'TestGoldenV1|TestGoldenV2|TestRoundTripAdaptive|TestRestoreContinuesBitIdenticallyAdaptive' ./internal/serve/checkpoint/
	$(GO) test -race -run 'TestGatewayRestoreAdaptive' ./internal/serve/
	$(GO) test -race -run 'TestMigrationMidRefitAdaptive' ./internal/cluster/
	$(GO) run ./cmd/mindful fleet -n 2 -workers 2 -ticks 12000 -channels 16 \
		-decoder kalman -decode-bin 25 -calibrate \
		-refit-every 12 -refit-buffer 48 -refit-blend 0.3 \
		-drift-sweep BENCH_drift.json

# Fast-kernel smoke: the bit-identity foundations (packed-modem decision
# thresholds at every boundary ±1 ulp, each fast kernel against its
# reference oracle, bulk normal sampler draw-for-draw against math/rand),
# the determinism wall (batch × workers × scenario digests equal the
# recorded pins, under the race detector), the zero-allocation pin on
# Pipeline.Step, the single-core packed-vs-general modem floor, and the
# worker scaling baseline (BENCH_fleet.json).
batch-smoke:
	$(GO) test -run 'TestDemodThresholdsExact|TestDemodBoundarySymbols|TestPackedModemIdentical|FastIdentical|TestPackedModemSpeedupFloor' ./internal/comm/
	$(GO) test -run 'TestFillNormBitIdentical' ./internal/detrand/
	$(GO) test -run 'FastIdentical' ./internal/neural/
	$(GO) test -race -run 'TestBatched|TestBatchValidate' ./internal/fleet/
	$(GO) test -race -run 'TestReceiveFastIdentical|TestReceiveRejectionIsStatic' ./internal/wearable/
	$(GO) test -run 'TestPipelineStepAllocFree' ./internal/fleet/
	$(GO) test -run 'TestFleetScalingBaseline' . -update

# Benchmark smoke: the benchmark harness is a module of its own
# (mindful/bench), so the root `go test ./...` never reaches it. Its
# tests pin the workloads' reference digests and check -compare and the
# run statistics.
bench-smoke:
	cd bench && $(GO) test ./...

check: build vet fmt race fault-smoke serve-smoke decode-smoke obs-smoke cluster-smoke chaos-smoke drift-smoke batch-smoke bench-smoke fuzz-smoke

bench:
	$(GO) test -bench=. -benchmem ./...

clean:
	$(GO) clean ./...
