package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"mindful/internal/comm"
	"mindful/internal/drift"
	"mindful/internal/fault"
	"mindful/internal/fleet"
	"mindful/internal/obs"
	"mindful/internal/report"
	"mindful/internal/units"
	"mindful/internal/wearable"
)

// fleetFlags registers the pipeline-configuration flags shared by the
// fleet and profile subcommands on fs, returning a builder that resolves
// them into a fleet.Config once fs has parsed.
func fleetFlags(fs *flag.FlagSet) func() (fleet.Config, error) {
	n := fs.Int("n", 64, "number of implants")
	workers := fs.Int("workers", 4, "worker goroutines")
	ticks := fs.Int("ticks", 128, "frames per implant")
	channels := fs.Int("channels", 32, "channels per implant")
	qam := fs.Int("qam", 4, "QAM bits per symbol (0 = OOK)")
	ebn0 := fs.Float64("ebn0", 12, "AWGN operating point Eb/N0 [dB]")
	seed := fs.Int64("seed", 1, "base seed for the sharded RNG streams")
	faults := fs.Float64("faults", 0, "fault intensity: default profile scaled by this factor (0 = off)")
	arqRetries := fs.Int("arq", 0, "ARQ retransmission budget per frame (0 = off)")
	fecDepth := fs.Int("fec", 0, "Hamming(7,4) FEC interleaver depth (0 = off)")
	conceal := fs.String("conceal", "none", "gap concealment: none, hold or interp")
	decoder := fs.String("decoder", "none", "kinematics decoder: none, kalman, wiener, dnn or fixed")
	decodeBin := fs.Int("decode-bin", 0, "frames per decoder observation bin (0 = default)")
	driftI := fs.Float64("drift", 0, "nonstationarity intensity: default sweep profile scaled by this factor (0 = off)")
	driftEpoch := fs.Int("drift-epoch", 0, "drift epoch length in ticks (0 = profile default)")
	calibrate := fs.Bool("calibrate", false, "fit the day-0 decoder from the implant's own simulated cortex")
	track := fs.Bool("track", false, "attach the instability meter and decode-error scoring")
	adapt := fs.Bool("adapt", false, "closed-loop decoder recalibration (implies -track)")
	refitEvery := fs.Int("refit-every", 0, "bins between recalibrations (0 = default)")
	refitBuffer := fs.Int("refit-buffer", 0, "supervision ring capacity in bins (0 = default)")
	refitBlend := fs.Float64("refit-blend", 0, "refit blending weight toward the new fit (0 = default)")
	return func() (fleet.Config, error) {
		cfg := fleet.DefaultConfig()
		cfg.Implants = *n
		cfg.Workers = *workers
		cfg.Ticks = *ticks
		cfg.Channels = *channels
		cfg.SampleRate = units.Kilohertz(2)
		if *qam == 0 {
			cfg.Modulation = comm.OOK{}
		} else {
			cfg.Modulation = comm.NewQAM(*qam)
		}
		cfg.EbN0dB = *ebn0
		cfg.Seed = *seed
		cfg.Observer = observer
		if *arqRetries > 0 {
			cfg.ARQ = comm.ARQConfig{MaxRetries: *arqRetries}
		}
		cfg.FECDepth = *fecDepth
		switch *conceal {
		case "none":
			cfg.Concealment = wearable.ConcealNone
		case "hold":
			cfg.Concealment = wearable.ConcealHold
		case "interp":
			cfg.Concealment = wearable.ConcealInterp
		default:
			return cfg, fmt.Errorf("unknown concealment %q (none, hold or interp)", *conceal)
		}
		if *faults > 0 {
			p := fault.DefaultProfile().Scale(*faults)
			cfg.Faults = &p
		}
		if *driftI > 0 {
			base := fleet.DefaultSweepProfile()
			if *driftEpoch > 0 {
				base.EpochTicks = *driftEpoch
			}
			p := base.Scale(*driftI)
			cfg.Drift = &p
		}
		kind, err := fleet.ParseDecoderKind(*decoder)
		if err != nil {
			return cfg, fmt.Errorf("%w: %v", errUsage, err)
		}
		cfg.Decode = fleet.DecodeConfig{
			Kind:        kind,
			BinTicks:    *decodeBin,
			Calibrate:   *calibrate,
			Track:       *track || *adapt,
			Adapt:       *adapt,
			RefitEvery:  *refitEvery,
			RefitBuffer: *refitBuffer,
			RefitBlend:  *refitBlend,
		}
		return cfg, nil
	}
}

// runFleet executes the parallel fleet simulator:
//
//	mindful fleet [-n N] [-workers K] [-ticks T] [-channels C]
//	              [-qam B] [-ebn0 DB] [-seed S] [-scaling FILE]
//	              [-faults I] [-arq N] [-fec D] [-conceal MODE]
//	              [-decoder NAME] [-decode-bin T] [-fault-sweep FILE]
//	              [-drift I] [-drift-epoch T] [-calibrate] [-track] [-adapt]
//	              [-refit-every N] [-refit-buffer N] [-refit-blend W]
//	              [-drift-sweep FILE]
//
// With -scaling FILE it additionally measures the 1/2/4/8-worker
// throughput curve on the same configuration and writes it as JSON (the
// BENCH_fleet.json schema). -faults I injects the default fault
// profile scaled to intensity I; -arq/-fec/-conceal enable the recovery
// stack. -decoder attaches a kinematics decoder (kalman, wiener, dnn or
// fixed) to every implant's wearable, binning received samples every
// -decode-bin frames. -fault-sweep FILE runs the degradation sweep over
// the default intensity grid and writes the curve as JSON (the
// BENCH_fault.json schema). -stage-timing attaches the per-stage flight
// recorder and prints the ns/frame attribution table after the run.
//
// -drift I attaches the default nonstationarity profile scaled to
// intensity I (-drift-epoch overrides its epoch length); -calibrate
// fits the day-0 decoder from the implant's own simulated cortex;
// -track scores decode error and instability; -adapt closes the loop
// with periodic recalibration tuned by -refit-every/-buffer/-blend.
// -drift-sweep FILE runs the frozen-versus-adaptive degradation sweep
// and writes the curve as JSON (the BENCH_drift.json schema).
func runFleet() error {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	build := fleetFlags(fs)
	scaling := fs.String("scaling", "", "measure the 1/2/4/8-worker scaling curve and write it to FILE")
	faultSweep := fs.String("fault-sweep", "", "run the degradation sweep and write the curve to FILE")
	driftSweep := fs.String("drift-sweep", "", "run the frozen-vs-adaptive drift sweep and write the curve to FILE")
	stageTiming := fs.Bool("stage-timing", false, "attach the per-stage flight recorder and print the ns/frame table")
	if err := fs.Parse(flag.Args()[1:]); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	cfg, err := build()
	if err != nil {
		return err
	}
	if *stageTiming {
		cfg.StageTiming = obs.NewStageTimer()
	}

	if *faultSweep != "" {
		return runFaultSweep(cfg, *faultSweep)
	}
	if *driftSweep != "" {
		return runDriftSweep(cfg, *driftSweep)
	}

	agg, err := fleet.Run(cfg)
	if err != nil {
		return err
	}

	tb := report.NewTable(fmt.Sprintf("Fleet: %d implants × %d ticks over %d workers (%s @ %g dB)",
		agg.Implants, agg.Ticks, agg.Workers, cfg.Modulation.Name(), cfg.EbN0dB),
		"Shard", "Implants", "Frames", "Accepted", "Corrupt", "Bit errors")
	type shardAcc struct{ implants, frames, accepted, corrupt, bitErrs int64 }
	shards := make([]shardAcc, agg.Workers)
	for _, r := range agg.PerImplant {
		s := &shards[r.Worker]
		s.implants++
		s.frames += r.Frames
		s.accepted += r.Accepted
		s.corrupt += r.Corrupt
		s.bitErrs += r.BitErrors
	}
	for w, s := range shards {
		tb.AddRow(strconv.Itoa(w), strconv.FormatInt(s.implants, 10),
			strconv.FormatInt(s.frames, 10), strconv.FormatInt(s.accepted, 10),
			strconv.FormatInt(s.corrupt, 10), strconv.FormatInt(s.bitErrs, 10))
	}
	fmt.Print(tb.String())
	fmt.Printf("\nBER %.3g  FER %.3g  lost-seq %d  digest %#016x\n",
		agg.BER, agg.FER, agg.LostSeq, agg.Digest)
	if cfg.Faults != nil || cfg.ARQ.Enabled() || cfg.FECDepth > 0 || cfg.Concealment != wearable.ConcealNone {
		fmt.Printf("delivery %.4f  concealed %.4f  effective-BER %.3g\n",
			agg.DeliveryRate(), agg.ConcealedFraction(), agg.EffectiveBER())
		fmt.Printf("blanked %d  link-dropped %d  retransmits %d  recovered %d  arq-failed %d  fec-fixed %d  stale %d\n",
			agg.Blanked, agg.LinkDropped, agg.Retransmits, agg.Recovered, agg.ARQFailed, agg.FECCorrected, agg.Stale)
	}
	if cfg.Decode.Enabled() {
		fmt.Printf("decoder %s: %d steps  %d concealed bins  %d MACs  decode-digest %#016x\n",
			cfg.Decode.Kind, agg.DecodedSteps, agg.DecodeConcealedBins, agg.DecodeMACs, agg.DecodeDigest)
	}
	fmt.Printf("%.0f frames/s over %s (GOMAXPROCS %d)\n",
		agg.FramesPerSecond, agg.Elapsed.Round(time.Microsecond), runtime.GOMAXPROCS(0))
	if cfg.StageTiming != nil {
		fmt.Println()
		fmt.Print(stageTable("Stage timing: attributed ns/frame", cfg.StageTiming.Stats()).String())
	}
	if *csvDir != "" {
		if err := writeFile(*csvDir, "fleet.csv", tb.CSV()); err != nil {
			return err
		}
	}

	if *scaling != "" {
		points, err := fleet.MeasureScaling(cfg, []int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		curve := struct {
			Benchmark  string               `json:"benchmark"`
			Implants   int                  `json:"implants"`
			Ticks      int                  `json:"ticks"`
			Channels   int                  `json:"channels"`
			GOMAXPROCS int                  `json:"gomaxprocs"`
			NumCPU     int                  `json:"num_cpu"`
			Points     []fleet.ScalingPoint `json:"points"`
		}{"fleet_worker_scaling", cfg.Implants, cfg.Ticks, cfg.Channels,
			runtime.GOMAXPROCS(0), runtime.NumCPU(), points}
		out, err := json.MarshalIndent(curve, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*scaling, append(out, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *scaling)
		for _, p := range points {
			fmt.Printf("workers=%d: %.0f frames/s (%.2fx)\n", p.Workers, p.FramesPerSecond, p.Speedup)
		}
	}

	return nil
}

// runFaultSweep executes the degradation sweep over the default intensity
// grid and writes the curve as JSON (the BENCH_fault.json schema). The
// config's ARQ/FEC/concealment settings apply to every point, so the
// intensity-0 point measures the recovery stack's fault-free overhead.
func runFaultSweep(cfg fleet.Config, path string) error {
	sw, err := fleet.RunFaultSweep(cfg, fault.DefaultProfile(), nil)
	if err != nil {
		return err
	}

	tb := report.NewTable(fmt.Sprintf("Fault sweep: %d implants × %d ticks (arq %d, fec %d, conceal %s)",
		cfg.Implants, cfg.Ticks, cfg.ARQ.MaxRetries, cfg.FECDepth, concealName(cfg.Concealment)),
		"Intensity", "Delivery", "Concealed", "Eff. BER", "Dropped", "Retransmits", "Recovered", "FEC fixed")
	for _, p := range sw.Points {
		tb.AddRow(fmt.Sprintf("%.2f", p.Intensity), fmt.Sprintf("%.4f", p.DeliveryRate),
			fmt.Sprintf("%.4f", p.ConcealedFraction), fmt.Sprintf("%.3g", p.EffectiveBER),
			strconv.FormatInt(p.LinkDropped, 10), strconv.FormatInt(p.Retransmits, 10),
			strconv.FormatInt(p.Recovered, 10), strconv.FormatInt(p.FECCorrected, 10))
	}
	fmt.Print(tb.String())
	fmt.Printf("\nsweep digest %#016x\n", sw.Digest)

	type pointJSON struct {
		Intensity         float64 `json:"intensity"`
		DeliveryRate      float64 `json:"delivery_rate"`
		ConcealedFraction float64 `json:"concealed_fraction"`
		EffectiveBER      float64 `json:"effective_ber"`
		FER               float64 `json:"fer"`
		Accepted          int64   `json:"accepted"`
		Corrupt           int64   `json:"corrupt"`
		Blanked           int64   `json:"blanked"`
		LinkDropped       int64   `json:"link_dropped"`
		Retransmits       int64   `json:"retransmits"`
		Recovered         int64   `json:"recovered"`
		FECCorrected      int64   `json:"fec_corrected"`
		Concealed         int64   `json:"concealed"`
		Digest            string  `json:"digest"`
	}
	curve := struct {
		Benchmark   string      `json:"benchmark"`
		Implants    int         `json:"implants"`
		Ticks       int         `json:"ticks"`
		Channels    int         `json:"channels"`
		ARQRetries  int         `json:"arq_retries"`
		FECDepth    int         `json:"fec_depth"`
		Concealment string      `json:"concealment"`
		Seed        int64       `json:"seed"`
		SweepDigest string      `json:"sweep_digest"`
		Points      []pointJSON `json:"points"`
	}{"fleet_fault_sweep", cfg.Implants, cfg.Ticks, cfg.Channels,
		cfg.ARQ.MaxRetries, cfg.FECDepth, concealName(cfg.Concealment), cfg.Seed,
		strconv.FormatUint(sw.Digest, 10), nil}
	for _, p := range sw.Points {
		curve.Points = append(curve.Points, pointJSON{
			Intensity: p.Intensity, DeliveryRate: p.DeliveryRate,
			ConcealedFraction: p.ConcealedFraction, EffectiveBER: p.EffectiveBER,
			FER: p.FER, Accepted: p.Accepted, Corrupt: p.Corrupt,
			Blanked: p.Blanked, LinkDropped: p.LinkDropped,
			Retransmits: p.Retransmits, Recovered: p.Recovered,
			FECCorrected: p.FECCorrected, Concealed: p.Concealed,
			Digest: strconv.FormatUint(p.Digest, 10),
		})
	}
	out, err := json.MarshalIndent(curve, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// runDriftSweep executes the frozen-versus-adaptive nonstationarity
// sweep over the default intensity grid and writes the curve as JSON
// (the BENCH_drift.json schema). The config's decoder and refit knobs
// apply to every point; its own -drift flag is ignored (the sweep scales
// the default sweep profile itself).
func runDriftSweep(cfg fleet.Config, path string) error {
	cfg.Drift = nil
	sw, err := fleet.RunDriftSweep(cfg, fleet.DefaultSweepProfile(), nil)
	if err != nil {
		return err
	}

	dc := cfg.Decode
	tb := report.NewTable(fmt.Sprintf("Drift sweep: %d implants × %d ticks (decoder %s, bin %d)",
		cfg.Implants, cfg.Ticks, dc.Kind, dc.BinTicks),
		"Intensity", "Frozen RMSE", "Adaptive RMSE", "Refits", "Turnovers", "Units lost", "KL")
	for _, p := range sw.Points {
		tb.AddRow(fmt.Sprintf("%.2f", p.Intensity), fmt.Sprintf("%.4f", p.FrozenRMSE),
			fmt.Sprintf("%.4f", p.AdaptiveRMSE), strconv.FormatInt(p.Refits, 10),
			strconv.FormatInt(p.DriftTurnovers, 10), strconv.FormatInt(p.DriftUnitsLost, 10),
			fmt.Sprintf("%.3f", p.FrozenKL))
	}
	fmt.Print(tb.String())
	fmt.Printf("\nsweep digest %#016x\n", sw.Digest)

	type pointJSON struct {
		Intensity      float64 `json:"intensity"`
		FrozenRMSE     float64 `json:"frozen_rmse"`
		AdaptiveRMSE   float64 `json:"adaptive_rmse"`
		FrozenKL       float64 `json:"frozen_kl"`
		AdaptiveKL     float64 `json:"adaptive_kl"`
		Refits         int64   `json:"refits"`
		DriftEpochs    int64   `json:"drift_epochs"`
		DriftTurnovers int64   `json:"drift_turnovers"`
		DriftUnitsLost int64   `json:"drift_units_lost"`
		FrameDigest    string  `json:"frame_digest"`
	}
	curve := struct {
		Benchmark   string        `json:"benchmark"`
		Implants    int           `json:"implants"`
		Ticks       int           `json:"ticks"`
		Channels    int           `json:"channels"`
		Decoder     string        `json:"decoder"`
		DecodeBin   int           `json:"decode_bin"`
		RefitEvery  int           `json:"refit_every"`
		RefitBuffer int           `json:"refit_buffer"`
		RefitBlend  float64       `json:"refit_blend"`
		Profile     drift.Profile `json:"profile"`
		Seed        int64         `json:"seed"`
		SweepDigest string        `json:"sweep_digest"`
		Points      []pointJSON   `json:"points"`
	}{"fleet_drift_sweep", cfg.Implants, cfg.Ticks, cfg.Channels,
		dc.Kind.String(), dc.BinTicks, dc.RefitEvery, dc.RefitBuffer, dc.RefitBlend,
		sw.Profile, cfg.Seed, strconv.FormatUint(sw.Digest, 10), nil}
	for _, p := range sw.Points {
		curve.Points = append(curve.Points, pointJSON{
			Intensity: p.Intensity, FrozenRMSE: p.FrozenRMSE,
			AdaptiveRMSE: p.AdaptiveRMSE, FrozenKL: p.FrozenKL,
			AdaptiveKL: p.AdaptiveKL, Refits: p.Refits,
			DriftEpochs: p.DriftEpochs, DriftTurnovers: p.DriftTurnovers,
			DriftUnitsLost: p.DriftUnitsLost,
			FrameDigest:    strconv.FormatUint(p.FrameDigest, 10),
		})
	}
	out, err := json.MarshalIndent(curve, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// stageTable renders a per-stage timing breakdown as a report table.
func stageTable(title string, stages []obs.StageStats) *report.Table {
	tb := report.NewTable(title,
		"Stage", "Steps", "Mean [ns]", "EWMA [ns]", "p50 [ns]", "p99 [ns]", "Total [ms]")
	for _, s := range stages {
		tb.AddRow(s.Stage, strconv.FormatInt(s.Count, 10),
			f(s.MeanNs, 0), f(s.EWMANs, 0), f(s.P50Ns, 0), f(s.P99Ns, 0),
			f(float64(s.TotalNs)/1e6, 2))
	}
	return tb
}

// concealName names a concealment mode for reports.
func concealName(c wearable.Concealment) string {
	switch c {
	case wearable.ConcealHold:
		return "hold"
	case wearable.ConcealInterp:
		return "interp"
	default:
		return "none"
	}
}
