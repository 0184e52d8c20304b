package main

import (
	"fmt"
	"runtime"
	"time"

	"mindful/internal/comm"
	"mindful/internal/fault"
	"mindful/internal/fleet"
	"mindful/internal/obs"
	"mindful/internal/wearable"
)

// fleetBase is the pipeline every workload runs: 32 channels at the
// 2 kHz ECoG clock, a 10-bit ADC, 16-QAM at 12 dB Eb/N0. The fleet
// workloads run one worker: fleet.Run shards implants statically, so with
// two workers on two CPUs a run lasts as long as the shard whose CPU the
// garbage collector or another tenant slowed most, and ten runs of the
// same code spread twice as far as with one worker.
func fleetBase(seed int64) fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Channels = 32
	cfg.SampleBits = 10
	cfg.Modulation = comm.NewQAM(4)
	cfg.EbN0dB = 12
	cfg.Seed = seed
	cfg.Workers = 1
	return cfg
}

func fleetCleanConfig(seed int64, tiny bool) fleet.Config {
	cfg := fleetBase(seed)
	cfg.Implants, cfg.Ticks, cfg.Batch = 256, 4000, 16
	if tiny {
		cfg.Implants, cfg.Ticks = 8, 50
	}
	return cfg
}

func fleetDecodeConfig(seed int64, tiny bool) fleet.Config {
	cfg := fleetBase(seed)
	cfg.Implants, cfg.Ticks, cfg.Batch = 64, 2000, 16
	cfg.Decode = fleet.DecodeConfig{Kind: fleet.DecoderKalman, Calibrate: true, Track: true, Adapt: true}
	drift := fleet.DefaultSweepProfile()
	drift.EpochTicks = 500
	if tiny {
		cfg.Implants, cfg.Ticks = 4, 60
		drift.EpochTicks = 20
	}
	p := drift.Scale(1)
	cfg.Drift = &p
	return cfg
}

func fleetLossyConfig(seed int64, tiny bool) fleet.Config {
	cfg := fleetBase(seed)
	cfg.Implants, cfg.Ticks, cfg.Batch = 64, 2000, 0
	faults := fault.DefaultProfile().Scale(1)
	cfg.Faults = &faults
	cfg.ARQ = comm.ARQConfig{MaxRetries: 2}
	cfg.FECDepth = 4
	cfg.Concealment = wearable.ConcealHold
	if tiny {
		cfg.Implants, cfg.Ticks = 4, 50
	}
	return cfg
}

// fleetRunner measures fleet.Run on one config.
type fleetRunner struct {
	cfg fleet.Config
	pin string
	// spot holds scalar single-pipeline reference digests for the first
	// and last implant; first holds every implant's digests from the
	// first iteration, which every later iteration must repeat.
	spot  map[int][2]uint64
	first []uint64
}

func openFleet(cfg fleet.Config, pin string) (runner, error) {
	r := &fleetRunner{cfg: cfg, pin: pin, spot: make(map[int][2]uint64)}
	for _, idx := range []int{0, cfg.Implants - 1} {
		d, dd, err := scalarDigest(cfg, idx)
		if err != nil {
			return nil, err
		}
		r.spot[idx] = [2]uint64{d, dd}
	}
	return r, nil
}

// scalarDigest steps one implant's pipeline on its own — the reference
// every batched, multi-worker fleet run must reproduce per implant.
func scalarDigest(cfg fleet.Config, idx int) (uint64, uint64, error) {
	p, err := fleet.NewPipeline(cfg, idx, 0)
	if err != nil {
		return 0, 0, err
	}
	defer p.Close()
	for t := 0; t < cfg.Ticks; t++ {
		if err := p.Step(); err != nil {
			return 0, 0, err
		}
	}
	res := p.Result()
	return res.Digest, res.DecodeDigest, nil
}

func (r *fleetRunner) workers() int { return r.cfg.Workers }

// setup times fleet.Run at one tick: pipeline construction, decoder
// calibration and one step of every stage.
func (r *fleetRunner) setup() (time.Duration, error) {
	cfg := r.cfg
	cfg.Ticks = 1
	start := time.Now()
	if _, err := fleet.Run(cfg); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

func (r *fleetRunner) iterate(tr *tracer, trace string, setup float64) (*iteration, error) {
	it := newIteration(tr != nil)
	root := tr.begin("bench.iteration", trace, 0)
	defer tr.end(root)

	cfg := r.cfg
	var timer *obs.StageTimer
	var before runtime.MemStats
	if tr != nil {
		timer = obs.NewStageTimer()
		cfg.StageTiming = timer
		runtime.ReadMemStats(&before)
	}

	id := tr.begin("fleet.run", trace, root)
	start := time.Now()
	agg, err := fleet.Run(cfg)
	elapsed := time.Since(start)
	tr.end(id)
	it.attempted = int64(cfg.Implants)
	if err != nil {
		it.fail(int64(cfg.Implants), "fleet.Run: %v", err)
		return it, nil
	}

	steady := elapsed.Seconds() - setup
	if steady <= 0 {
		steady = elapsed.Seconds()
	}
	it.frames, it.busy = float64(agg.Frames), steady
	it.digest = fmt.Sprintf("digest=%d decode=%d", agg.Digest, agg.DecodeDigest)
	r.check(it, agg)

	it.exact["comm.bits_sent"] = float64(agg.BitsSent)
	it.exact["comm.bit_errors"] = float64(agg.BitErrors)
	it.exact["comm.retransmits"] = float64(agg.Retransmits)
	it.exact["comm.fec_corrected"] = float64(agg.FECCorrected)
	it.exact["wearable.accepted"] = float64(agg.Accepted)
	it.exact["wearable.concealed"] = float64(agg.Concealed)
	it.exact["decode.steps"] = float64(agg.DecodedSteps)
	it.exact["decode.macs"] = float64(agg.DecodeMACs)
	it.exact["adapt.refits"] = float64(agg.Refits)
	it.exact["drift.epochs"] = float64(agg.DriftEpochs)
	it.values["comm.goodput_ratio"] = float64(agg.Accepted) / float64(agg.Frames+agg.Retransmits)

	if tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		it.values["fleet.allocs_per_frame"] = float64(after.Mallocs-before.Mallocs) / float64(agg.Frames)
		it.values["fleet.heap_bytes_per_frame"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(agg.Frames)
		stageShares(it, timer, agg)
		if err := r.timeSetupPerImplant(it, tr, trace, root); err != nil {
			return nil, err
		}
	}
	return it, nil
}

// check compares the run's output with the references: the spot-checked
// implants against their scalar runs, every implant against the first
// iteration, and the aggregate against the pin at the default seed.
func (r *fleetRunner) check(it *iteration, agg *fleet.Aggregate) {
	for idx, want := range r.spot {
		got := agg.PerImplant[idx]
		it.attempted++
		if got.Digest != want[0] || got.DecodeDigest != want[1] {
			it.fail(1, "implant %d: fleet digest %d/%d, scalar pipeline %d/%d",
				idx, got.Digest, got.DecodeDigest, want[0], want[1])
		}
	}
	if r.first == nil {
		r.first = make([]uint64, len(agg.PerImplant))
		for i, res := range agg.PerImplant {
			r.first[i] = res.Digest ^ res.DecodeDigest
		}
	} else {
		for i, res := range agg.PerImplant {
			if res.Digest^res.DecodeDigest != r.first[i] {
				it.fail(1, "implant %d: digest changed between iterations", i)
			}
		}
	}
	if r.pin != "" && it.digest != r.pin {
		it.fail(1, "digest %q, pinned %q", it.digest, r.pin)
	}
}

// stageShares attributes the run's worker time to stages from the
// StageTiming hook. The runner's share is what the stages do not cover:
// pipeline construction, the runner loop and idle workers.
func stageShares(it *iteration, timer *obs.StageTimer, agg *fleet.Aggregate) {
	workerNs := float64(agg.Elapsed.Nanoseconds()) * float64(agg.Workers)
	covered := 0.0
	for _, st := range timer.Stats() {
		if st.Count == 0 {
			continue
		}
		share := float64(st.TotalNs) / workerNs
		covered += share
		it.values[st.Stage+".ns_per_frame"] = float64(st.TotalNs) / float64(st.Count)
		it.values[st.Stage+".share"] = share
		switch st.Stage {
		case "transport":
			it.values["transport.p99_ns"] = st.P99Ns
		case "decode":
			if agg.DecodedSteps > 0 {
				it.values["decode.ns_per_step"] = float64(st.TotalNs) / float64(agg.DecodedSteps)
			}
		}
	}
	it.values["fleet.runner_share"] = 1 - covered
}

// timeSetupPerImplant times fleet.NewPipeline + Close for every implant,
// one span each.
func (r *fleetRunner) timeSetupPerImplant(it *iteration, tr *tracer, trace string, root int64) error {
	parent := tr.begin("fleet.pipelines", trace, root)
	defer tr.end(parent)
	var total time.Duration
	for i := 0; i < r.cfg.Implants; i++ {
		id := tr.begin("fleet.new_pipeline", fmt.Sprintf("implant-%d", i), parent)
		start := time.Now()
		p, err := fleet.NewPipeline(r.cfg, i, 0)
		if err != nil {
			return err
		}
		p.Close()
		total += time.Since(start)
		tr.end(id)
	}
	it.values["fleet.setup_us_per_implant"] = float64(total.Microseconds()) / float64(r.cfg.Implants)
	return nil
}
