# MINDFUL-Go developer targets.
#
# `make check` is the tier-1.5 gate: everything tier-1 runs
# (build + tests) plus vet, gofmt drift, the race detector (which covers
# the fleet determinism wall), the benchmark workloads' seed-1 digest
# pins, and a short fuzz smoke of the frame parser and Rice codec. It
# writes no tracked file: the baseline tests only assert (rerun them
# with -update to regenerate a BENCH_*.json on purpose), and the CLI
# runs write their BENCH_*.json under the git-ignored out/.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test check fmt vet race bench fuzz-smoke fault-smoke serve-smoke decode-smoke obs-smoke cluster-smoke chaos-smoke drift-smoke batch-smoke bench-smoke bench-pins determinism clean

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
# packing round trips, the tiled FEC encoder and decoder and the packed
# modem against their bit-level oracles, the burst link against its
# per-bit walk, and the dsp Delta–Rice codec.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParsePacket -fuzztime $(FUZZTIME) ./internal/comm/
	$(GO) test -run '^$$' -fuzz FuzzPackSamples -fuzztime $(FUZZTIME) ./internal/comm/
	$(GO) test -run '^$$' -fuzz FuzzBitsBytes -fuzztime $(FUZZTIME) ./internal/comm/
	$(GO) test -run '^$$' -fuzz FuzzFECEncode -fuzztime $(FUZZTIME) ./internal/comm/
	$(GO) test -run '^$$' -fuzz FuzzFECDecode -fuzztime $(FUZZTIME) ./internal/comm/
	$(GO) test -run '^$$' -fuzz FuzzPackedModem -fuzztime $(FUZZTIME) ./internal/comm/
	$(GO) test -run '^$$' -fuzz FuzzARQReorder -fuzztime $(FUZZTIME) ./internal/comm/
	$(GO) test -run '^$$' -fuzz FuzzBurstLink -fuzztime $(FUZZTIME) ./internal/fault/
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
# under the v2 codec, the gateway-layer decoded stream, the decoders'
# zero-allocation pins and the linalg kernels against their bit-exact
# accessor-loop oracles.
decode-smoke:
	$(GO) test -race -run 'TestDecode|TestCheckpointResumeWithDecoder|TestSessionDecoderDeterministic' ./internal/fleet/
	$(GO) test -race -run 'TestGoldenV1|TestRoundTripWithDecoder|TestRestoreContinuesBitIdenticallyWithDecoder' ./internal/serve/checkpoint/
	$(GO) test -race -run 'TestDecodedStream|TestGatewayRestoreWithDecoder|TestDefaultDecoderApplied' ./internal/serve/
	$(GO) test -run 'TestResetEqualsFresh|TestDecoderStepZeroAlloc|TestRecalibratorFeedZeroAlloc' ./internal/decode/
	$(GO) test -run 'MatchesOracle' ./internal/linalg/

# Observability smoke: the flight recorder's guarantees — stage timing
# is digest-neutral and covers all four stages, the disabled path costs
# under 0.5% of a tick (BENCH_obs.json), the event
# log survives wraparound and round-trips canonically, and the serve
# lifecycle/fault narration fires — under the race detector where the
# recorder runs concurrently.
obs-smoke:
	$(GO) test -run 'TestStageProfileBaseline|TestObserverOverheadBaseline' .
	$(GO) test -race -run 'TestEventLog|TestEventRoundTrip|TestEventJSONCanonical|TestDecodeEventErrors|TestStageTimer|TestHistogramQuantile|TestExportGoldenFiles|TestTracerWraparoundSustained' ./internal/obs/
	$(GO) test -race -run 'TestStageTiming|TestRunProfile' ./internal/fleet/
	$(GO) test -race -run 'TestReadyz|TestSessionStatsEndpoint|TestStatsDeliveryLatency|TestLifecycleEvents|TestFaultPathEvents' ./internal/serve/

# Cluster smoke: the ring property tests (uniformity + minimal
# disruption), the migration determinism wall (every decoder kind,
# bit-identical digests across a live mid-run migration), subscribers
# following a migration through the front tier, the chaos kill/restore
# regression (SIGKILL-equivalent shard death right after a live
# migration onto it, checkpoint recovery, split-brain guard, digests
# pinned), the sweep driver's digest audit, and the drain-readyz
# contract — all under the race detector.
cluster-smoke:
	$(GO) test -race -run 'TestRing|TestMigration|TestMigrate|TestConcurrentMigrations|TestSubscriberFollowsMigration|TestChaos|TestCluster' ./internal/cluster/
	$(GO) test -race -run 'TestExportImport|TestImportRejects|TestReadyzDraining|TestSubscribeMoved|TestKillIsAbrupt' ./internal/serve/

# Chaos-hardening smoke: the deterministic fault-injection primitives
# (CRN monotonicity, per-op isolation, transport fates), the durable
# checkpoint store's corruption table, the chaos determinism wall
# (seeded control-plane faults, janitor convergence to exactly one copy
# per key, bit-identical digests) and the front-tier restart recovery —
# all under the race detector — then the default chaos sweep (four
# intensities, live migrations and a shard kill at each, every served
# digest checked against an uninterrupted run) emitting
# out/BENCH_chaos.json.
chaos-smoke:
	$(GO) test -race ./internal/chaosnet/ ./internal/cluster/store/
	$(GO) test -race -run 'TestChaosDeterminismWall|TestChaosWallFaultFreePins|TestFrontTierRestartRecovers|TestRecoverShard' ./internal/cluster/
	mkdir -p out
	$(GO) run ./cmd/mindful cluster -chaos-out out/BENCH_chaos.json

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
	mkdir -p out
	$(GO) run ./cmd/mindful fleet -n 2 -workers 2 -ticks 12000 -channels 16 \
		-decoder kalman -decode-bin 25 -calibrate \
		-refit-every 12 -refit-buffer 48 -refit-blend 0.3 \
		-drift-sweep out/BENCH_drift.json

# Fast-kernel smoke: the bit-identity foundations (packed-modem decision
# thresholds at every boundary ±1 ulp, each fast kernel against its
# reference oracle, the tiled FEC codec and the bulk-drawn burst link
# against their bit-level oracles, the generator and the bulk normal and
# uniform samplers draw-for-draw against math/rand),
# the transport stage against its bit-per-byte oracle on the whole
# transport grid, the determinism wall (batch × workers × scenario
# digests equal the recorded pins, under the race detector), the
# zero-allocation pin on Pipeline.Step, the single-core packed-vs-oracle
# modem floor, and the worker scaling baseline (BENCH_fleet.json).
batch-smoke:
	$(GO) test -run 'TestDemodThresholdsExact|TestDemodBoundarySymbols|TestPackedModemIdentical|TestFECPackedMatchesOracle|FastIdentical|TestPackedModemSpeedupFloor' ./internal/comm/
	$(GO) test -run 'TestSequenceMatchesMathRand|TestFillNormBitIdentical|TestFillFloat64BitIdentical|TestFloat64RedrawsOne' ./internal/detrand/
	$(GO) test -run 'TestBurstLinkMatchesOracle|TestAppendTransportZeroAlloc' ./internal/fault/
	$(GO) test -run 'FastIdentical' ./internal/neural/
	$(GO) test -run 'TestTransportMatchesOracle' ./internal/fleet/
	$(GO) test -race -run 'TestBatched|TestBatchValidate' ./internal/fleet/
	$(GO) test -race -run 'TestReceiveFastIdentical|TestReceiveRejectionIsStatic' ./internal/wearable/
	$(GO) test -run 'TestPipelineStepAllocFree' ./internal/fleet/
	$(GO) test -run 'TestFleetScalingBaseline' .

# Benchmark smoke: the benchmark harness is a module of its own
# (mindful/bench), so the root `go test ./...` never reaches it. Its
# tests run every workload at a tiny size and seed 7, where no digest is
# pinned, and check -compare and the run statistics.
bench-smoke:
	cd bench && $(GO) test ./...

# Benchmark pins: every workload at full size and seed 1, the seed
# bench/workloads.go pins their output digests at. The last line of a
# run reports "correct":false when one output bit moved, so a kernel
# change that is not bit-identical fails here, not only in a benchmark
# comparison. The traced run alternates an untraced and a traced
# iteration, so each workload runs at least twice and the benchmark's
# cross-iteration digest and exact-count checks run too. Build outputs
# go to the git-ignored .bench_build/, span files to out/bench-pins/.
BENCH_WORKLOADS = fleet-clean fleet-decode fleet-lossy serve-realtime cluster-migrate
bench-pins:
	@for w in $(BENCH_WORKLOADS); do \
		line="$$(bash bench/run.sh --workload $$w --seed 1 --seconds 0 --trace 1 --out out/bench-pins | tail -n 1)"; \
		echo "$$w: $$line"; \
		case "$$line" in \
		*'"correct":true'*) ;; \
		*) echo "bench-pins: $$w does not reproduce its seed-1 pin"; exit 1 ;; \
		esac; \
	done

check: build vet fmt race fault-smoke serve-smoke decode-smoke obs-smoke cluster-smoke chaos-smoke drift-smoke batch-smoke bench-smoke bench-pins fuzz-smoke

bench:
	$(GO) test -bench=. -benchmem ./...

clean:
	$(GO) clean ./...
