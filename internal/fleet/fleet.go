// Package fleet runs many independent implant → modem → AWGN → wearable
// pipelines concurrently — the system-level scaling experiment behind the
// paper's Fig. 1 deployment picture, where one wearable serves a fleet of
// implanted sensors.
//
// Determinism is the design center: every implant pipeline is fully
// self-seeded through SplitMix64-derived streams (DeriveSeed), implants
// are assigned to workers by static round-robin, each result lands in a
// disjoint slice slot, and aggregation walks the slots in index order.
// The aggregate is therefore bit-identical for any worker count or
// GOMAXPROCS — the property the determinism test wall pins down.
//
// The per-tick hot path is allocation-free at steady state: sample, code,
// bit, symbol and frame buffers come from the comm package's sync.Pools
// and are recycled through the Append* APIs.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"mindful/internal/comm"
	"mindful/internal/drift"
	"mindful/internal/fault"
	"mindful/internal/obs"
	"mindful/internal/units"
	"mindful/internal/wearable"
)

// FNV-1a 64-bit parameters for the result digests.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Config describes one fleet run.
type Config struct {
	// Implants is the number of independent implant pipelines.
	Implants int
	// Workers is the number of concurrent worker goroutines; values < 1
	// run single-threaded. The result is identical for every value.
	Workers int
	// Batch is the number of implants each worker steps in groups of
	// Batch in tick lockstep; values < 2 step one implant at a time. Every
	// deterministic output — aggregate and per-implant digests included —
	// is identical for every value: grouping interleaves implants at tick
	// granularity, which cannot reorder any single implant's per-stream
	// random draws.
	Batch int
	// Ticks is the number of frames each implant transmits.
	Ticks int
	// Channels is the per-implant electrode count.
	Channels int
	// SampleRate is the per-channel sampling frequency.
	SampleRate units.Frequency
	// SampleBits is the ADC width d (1..16).
	SampleBits int
	// Modulation selects the uplink modem (OOK, BPSK or square QAM).
	Modulation comm.Modulation
	// EbN0dB is the AWGN operating point in dB.
	EbN0dB float64
	// Seed is the base seed all per-implant streams derive from.
	Seed int64
	// Observer optionally collects shard-labeled fleet metrics.
	Observer *obs.Observer
	// StageTiming optionally attributes per-stage wall time: when non-nil
	// every pipeline stage's Step is timed into the clock named after the
	// stage. The decorator is digest-neutral — it draws no randomness and
	// never touches the Tick — so every digest pin holds with timing
	// enabled. Process-local observability: not serialized in checkpoints,
	// ignored by config comparison.
	StageTiming *obs.StageTimer

	// Faults optionally injects the profile's deterministic failure modes
	// (electrode faults, brownouts, burst link) into every implant, each
	// seeded from its own derived stream. Nil, or a profile with nothing
	// enabled, leaves the pipeline byte-identical to the fault-free run.
	Faults *fault.Profile
	// ARQ bounds the link-layer retransmission loop; the zero value
	// disables recovery (each frame is transmitted exactly once).
	ARQ comm.ARQConfig
	// FECDepth enables Hamming(7,4) coding with the given interleaver
	// depth when > 0; zero transmits uncoded frames.
	FECDepth int
	// Concealment selects the wearable's gap-concealment strategy for
	// frames lost to drops, brownouts or exhausted retries.
	Concealment wearable.Concealment
	// Decode optionally closes the loop with a per-implant decoder fed
	// concealment-aware binned rates; the zero value stops the pipeline
	// at the wearable, byte-identical to the decoder-free run.
	Decode DecodeConfig
	// Drift optionally applies the multi-day nonstationarity model to
	// every implant's synthetic cortex: tuning rotation, gain and
	// baseline walks, unit turnover and loss, each implant on its own
	// derived StreamDrift stream. Nil, or a profile scaled to zero,
	// leaves every digest byte-identical to the drift-free run.
	Drift *drift.Profile
}

// DefaultConfig returns a small fleet at a noisy but workable operating
// point: 8 implants of 32 channels under 16-QAM at 12 dB Eb/N0.
func DefaultConfig() Config {
	return Config{
		Implants:   8,
		Workers:    4,
		Ticks:      128,
		Channels:   32,
		SampleRate: units.Kilohertz(2),
		SampleBits: 10,
		Modulation: comm.NewQAM(4),
		EbN0dB:     12,
		Seed:       1,
	}
}

// Upper bounds on the sizes a Config may request. Validate enforces them
// before anything is allocated, so an accepted config runs or returns an
// error instead of exhausting memory.
const (
	// MaxChannels is the largest electrode count the paper evaluates
	// (n = 8192 in Figs. 5–7 and 12).
	MaxChannels = 8192
	// MaxSampleRateHz is 5× the fastest Table 1 design in internal/soc
	// (20 kHz).
	MaxSampleRateHz = 100e3
)

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Implants < 1 {
		return errors.New("fleet: need at least one implant")
	}
	if c.Ticks < 1 {
		return errors.New("fleet: need at least one tick")
	}
	if c.Batch < 0 {
		return fmt.Errorf("fleet: negative batch size %d", c.Batch)
	}
	if c.Channels < 1 || c.Channels > MaxChannels {
		return fmt.Errorf("fleet: channels %d outside 1..%d", c.Channels, MaxChannels)
	}
	if hz := c.SampleRate.Hz(); !(hz > 0) || hz > MaxSampleRateHz {
		return fmt.Errorf("fleet: sample rate %g Hz outside (0, %g]", hz, float64(MaxSampleRateHz))
	}
	if c.SampleBits < 1 || c.SampleBits > 16 {
		return fmt.Errorf("fleet: sample bits %d outside 1..16", c.SampleBits)
	}
	// The AWGN channel runs on the linear Eb/N0 and its reciprocal N0;
	// both must be finite and positive. This also rejects NaN and ±Inf.
	if lin := math.Pow(10, c.EbN0dB/10); !(lin > 0) || math.IsInf(lin, 0) || math.IsInf(1/lin, 0) {
		return fmt.Errorf("fleet: Eb/N0 %g dB has no finite positive linear value", c.EbN0dB)
	}
	if c.Modulation == nil {
		return errors.New("fleet: no modulation configured")
	}
	if _, err := comm.NewPackedModem(c.Modulation); err != nil {
		return err
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	if err := c.ARQ.Validate(); err != nil {
		return err
	}
	if c.FECDepth < 0 {
		return fmt.Errorf("fleet: negative FEC depth %d", c.FECDepth)
	}
	if err := c.Decode.Validate(); err != nil {
		return err
	}
	if c.Drift != nil {
		if err := c.Drift.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Counters is the per-implant accounting Run sums over the fleet. It is
// embedded in both ImplantResult and Aggregate, so every field reads the
// same on either (res.Frames, agg.Frames).
type Counters struct {
	// Frames is the number of frames transmitted.
	Frames int64
	// Accepted, Corrupt and LostSeq are the wearable receiver's frame
	// accounting after the noisy link.
	Accepted int64
	Corrupt  int64
	LostSeq  int64
	// BitsSent and BitErrors count the on-air bits and the demodulation
	// errors against the known transmitted stream.
	BitsSent  int64
	BitErrors int64
	// Blanked counts frames framed but never radiated (brownouts);
	// LinkDropped frames lost whole by the burst link across all attempts.
	Blanked     int64
	LinkDropped int64
	// Retransmits, Recovered and ARQFailed are the link-layer recovery
	// accounting; RetransmitBits the on-air bits retries burned.
	Retransmits    int64
	Recovered      int64
	ARQFailed      int64
	RetransmitBits int64
	// FECCorrected counts bit errors fixed by the Hamming decoder.
	FECCorrected int64
	// Stale, Concealed and ConcealedSamples are the wearable's degradation
	// accounting: late duplicates discarded and gaps filled synthetically.
	Stale            int64
	Concealed        int64
	ConcealedSamples int64
	// FaultyChannels is the electrode count with an injected fault.
	FaultyChannels int
	// DataBits and DataBitErrors measure the post-FEC payload stream of
	// delivered frames — the residual (effective) error rate after coding.
	DataBits      int64
	DataBitErrors int64
	// DecodedSteps, DecodeConcealedBins and DecodeMACs are the decode
	// stage's accounting: decoder steps taken, bins containing at least
	// one concealed frame, and multiply-accumulates spent. All zero
	// without a decoder.
	DecodedSteps        int64
	DecodeConcealedBins int64
	DecodeMACs          int64
	// DecodeSqErr and DecodeErrBins are the adapt stage's decode-error
	// accounting: the summed squared estimate error against the true
	// intent and the bins it was accumulated over. Zero unless the
	// decode config tracks or adapts.
	DecodeSqErr   float64
	DecodeErrBins int64
	// Refits counts decoder recalibrations applied. Zero without
	// adaptation.
	Refits int64
	// DriftEpochs, DriftTurnovers and DriftUnitsLost are the drift
	// process's accounting: epoch boundaries crossed, units that swapped
	// tuning, and units currently dead. All zero without drift.
	DriftEpochs    int64
	DriftTurnovers int64
	DriftUnitsLost int64
}

// Add accumulates o into c, field by field.
func (c *Counters) Add(o Counters) {
	c.Frames += o.Frames
	c.Accepted += o.Accepted
	c.Corrupt += o.Corrupt
	c.LostSeq += o.LostSeq
	c.BitsSent += o.BitsSent
	c.BitErrors += o.BitErrors
	c.Blanked += o.Blanked
	c.LinkDropped += o.LinkDropped
	c.Retransmits += o.Retransmits
	c.Recovered += o.Recovered
	c.ARQFailed += o.ARQFailed
	c.RetransmitBits += o.RetransmitBits
	c.FECCorrected += o.FECCorrected
	c.Stale += o.Stale
	c.Concealed += o.Concealed
	c.ConcealedSamples += o.ConcealedSamples
	c.FaultyChannels += o.FaultyChannels
	c.DataBits += o.DataBits
	c.DataBitErrors += o.DataBitErrors
	c.DecodedSteps += o.DecodedSteps
	c.DecodeConcealedBins += o.DecodeConcealedBins
	c.DecodeMACs += o.DecodeMACs
	c.DecodeSqErr += o.DecodeSqErr
	c.DecodeErrBins += o.DecodeErrBins
	c.Refits += o.Refits
	c.DriftEpochs += o.DriftEpochs
	c.DriftTurnovers += o.DriftTurnovers
	c.DriftUnitsLost += o.DriftUnitsLost
}

// ImplantResult is the outcome of one implant's pipeline.
type ImplantResult struct {
	// Index is the implant's position in the fleet.
	Index int
	// Worker is the shard (worker goroutine) that ran the pipeline.
	Worker int
	Counters
	// Digest is an FNV-1a hash over every received frame byte, in tick
	// order — the byte-identity witness of the determinism tests.
	Digest uint64
	// DecodeDigest is an FNV-1a hash over every decoded estimate, the
	// decode-path analogue of Digest (0 without a decoder).
	DecodeDigest uint64
	// LastKL is the final instability (KL divergence) reading. Zero
	// without tracking.
	LastKL float64
	// Err is the first pipeline error, if any.
	Err error
}

// Aggregate is the fleet-wide summary, reduced in implant-index order.
type Aggregate struct {
	Implants int
	Workers  int
	Ticks    int

	// Counters are the per-implant counters summed over the fleet.
	Counters
	// MaxLastKL is the worst final instability reading across the fleet
	// (zero without tracking).
	MaxLastKL float64

	// BER is the measured uplink bit error rate; FER the frame error rate
	// at the receiver.
	BER float64
	FER float64

	// Digest chains the per-implant digests in index order — equal
	// digests mean byte-identical fleet output. DecodeDigest chains the
	// per-implant decode digests the same way (0 without a decoder).
	Digest       uint64
	DecodeDigest uint64

	// Elapsed and FramesPerSecond describe this run's wall-clock
	// performance; they are the only non-deterministic fields.
	Elapsed         time.Duration
	FramesPerSecond float64

	// PerImplant holds the individual results, ordered by Index.
	PerImplant []ImplantResult
}

// ExpectedFrames returns the frames the fleet framed (radiated or not).
func (a *Aggregate) ExpectedFrames() int64 {
	return int64(a.Implants) * int64(a.Ticks)
}

// DeliveryRate returns the fraction of framed payloads the wearable
// accepted intact — the degradation curve's headline figure (0 when no
// frames were expected).
func (a *Aggregate) DeliveryRate() float64 {
	if a.ExpectedFrames() == 0 {
		return 0
	}
	return float64(a.Accepted) / float64(a.ExpectedFrames())
}

// ConcealedFraction returns concealed frames over frames presented to the
// decoder (accepted + concealed), 0 when nothing was presented.
func (a *Aggregate) ConcealedFraction() float64 {
	if total := a.Accepted + a.Concealed; total > 0 {
		return float64(a.Concealed) / float64(total)
	}
	return 0
}

// DecodeRMSE returns the root-mean-square decode error against the true
// intent, per dimension, over every tracked bin (0 when the adapt stage
// was off or saw no bins).
func (a *Aggregate) DecodeRMSE() float64 {
	if a.DecodeErrBins == 0 {
		return 0
	}
	return math.Sqrt(a.DecodeSqErr / float64(intentDims*a.DecodeErrBins))
}

// EffectiveBER returns the residual payload bit error rate after FEC, over
// delivered frames (0 when nothing was delivered).
func (a *Aggregate) EffectiveBER() float64 {
	if a.DataBits == 0 {
		return 0
	}
	return float64(a.DataBitErrors) / float64(a.DataBits)
}

// Run executes the fleet and reduces the per-implant results. The
// deterministic fields of the aggregate depend only on the Config's
// simulation parameters, never on Workers or scheduling.
func Run(cfg Config) (*Aggregate, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > cfg.Implants {
		workers = cfg.Implants
	}

	results := make([]ImplantResult, cfg.Implants)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runShard(cfg, w, workers, results)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	agg := &Aggregate{
		Implants:   cfg.Implants,
		Workers:    workers,
		Ticks:      cfg.Ticks,
		Digest:     fnvOffset,
		Elapsed:    elapsed,
		PerImplant: results,
	}
	if cfg.Decode.Enabled() {
		agg.DecodeDigest = fnvOffset
	}
	for i := range results {
		r := &results[i]
		if r.Err != nil {
			return nil, fmt.Errorf("fleet: implant %d: %w", r.Index, r.Err)
		}
		agg.Counters.Add(r.Counters)
		agg.MaxLastKL = max(agg.MaxLastKL, r.LastKL)
		for shift := 56; shift >= 0; shift -= 8 {
			agg.Digest = (agg.Digest ^ (r.Digest >> shift & 0xFF)) * fnvPrime
		}
		if cfg.Decode.Enabled() {
			for shift := 56; shift >= 0; shift -= 8 {
				agg.DecodeDigest = (agg.DecodeDigest ^ (r.DecodeDigest >> shift & 0xFF)) * fnvPrime
			}
		}
	}
	if agg.BitsSent > 0 {
		agg.BER = float64(agg.BitErrors) / float64(agg.BitsSent)
	}
	if total := agg.Accepted + agg.Corrupt; total > 0 {
		agg.FER = float64(agg.Corrupt) / float64(total)
	}
	if s := elapsed.Seconds(); s > 0 {
		agg.FramesPerSecond = float64(agg.Frames) / s
	}
	return agg, nil
}

// runShard runs worker w's shard — implant i belongs to shard
// i mod workers, in index order — to Config.Ticks, stepping groups of
// Config.Batch pipelines (one at a time when Batch < 2) in tick lockstep
// and flushing each finished implant's shard-labeled metrics. Every
// result slot is written exactly once.
func runShard(cfg Config, w, workers int, results []ImplantResult) {
	var idxs []int
	for i := w; i < cfg.Implants; i += workers {
		idxs = append(idxs, i)
	}
	group := max(cfg.Batch, 1)
	ps := make([]*Pipeline, 0, group)
	for start := 0; start < len(idxs); start += group {
		ps = ps[:0]
		for _, idx := range idxs[start:min(start+group, len(idxs))] {
			p, err := NewPipeline(cfg, idx, w)
			if err != nil {
				results[idx] = ImplantResult{Index: idx, Worker: w, Digest: fnvOffset, Err: err}
				continue
			}
			ps = append(ps, p)
		}
		var failed *Pipeline
		var stepErr error
	ticks:
		for t := 0; t < cfg.Ticks; t++ {
			for _, p := range ps {
				if stepErr = p.Step(); stepErr != nil {
					failed = p
					break ticks
				}
			}
		}
		for _, p := range ps {
			res := p.Result()
			if p == failed {
				res.Err = stepErr
			} else if failed == nil {
				flushObserver(cfg, res, w)
			}
			results[res.Index] = res
			p.Close()
		}
	}
}

// flushObserver publishes one implant's finished counters to the
// configured observer under its shard label.
func flushObserver(cfg Config, res ImplantResult, worker int) {
	if cfg.Observer != nil {
		reg := cfg.Observer.Metrics
		lbl := obs.Label{Key: "shard", Value: strconv.Itoa(worker)}
		reg.Counter("fleet_frames_total", lbl).Add(res.Frames)
		reg.Counter("fleet_frames_accepted_total", lbl).Add(res.Accepted)
		reg.Counter("fleet_frames_corrupt_total", lbl).Add(res.Corrupt)
		reg.Counter("fleet_bits_sent_total", lbl).Add(res.BitsSent)
		reg.Counter("fleet_bit_errors_total", lbl).Add(res.BitErrors)
		reg.Counter("fleet_frames_blanked_total", lbl).Add(res.Blanked)
		reg.Counter("fleet_frames_link_dropped_total", lbl).Add(res.LinkDropped)
		reg.Counter("fleet_arq_retransmits_total", lbl).Add(res.Retransmits)
		reg.Counter("fleet_arq_recovered_total", lbl).Add(res.Recovered)
		reg.Counter("fleet_fec_corrected_bits_total", lbl).Add(res.FECCorrected)
		reg.Counter("fleet_frames_concealed_total", lbl).Add(res.Concealed)
		if cfg.Decode.Enabled() {
			reg.Counter("fleet_decode_steps_total", lbl).Add(res.DecodedSteps)
			reg.Counter("fleet_decode_concealed_bins_total", lbl).Add(res.DecodeConcealedBins)
			reg.Counter("fleet_decode_macs_total", lbl).Add(res.DecodeMACs)
			reg.Help("fleet_decode_steps_total", "Decoder steps taken by the shard's implants.")
			reg.Help("fleet_decode_concealed_bins_total", "Decoder bins containing at least one concealed frame.")
			reg.Help("fleet_decode_macs_total", "Multiply-accumulates spent by the shard's decoders.")
		}
		if cfg.Decode.Track || cfg.Decode.Adapt {
			reg.Counter("fleet_decode_refits_total", lbl).Add(res.Refits)
			reg.Gauge("fleet_decode_instability_kl", lbl).Set(res.LastKL)
			reg.Help("fleet_decode_refits_total", "Decoder recalibrations applied by the shard's implants.")
			reg.Help("fleet_decode_instability_kl", "Last instability (KL divergence) reading per shard.")
		}
		if cfg.Drift != nil && cfg.Drift.Enabled() {
			reg.Counter("fleet_drift_epochs_total", lbl).Add(res.DriftEpochs)
			reg.Counter("fleet_drift_turnovers_total", lbl).Add(res.DriftTurnovers)
			reg.Counter("fleet_drift_units_lost_total", lbl).Add(res.DriftUnitsLost)
			reg.Help("fleet_drift_epochs_total", "Drift epoch boundaries crossed by the shard's implants.")
			reg.Help("fleet_drift_turnovers_total", "Units that swapped tuning across the shard's implants.")
			reg.Help("fleet_drift_units_lost_total", "Units currently dead across the shard's implants.")
		}
		reg.Help("fleet_frames_total", "Frames transmitted by the shard's implants.")
		reg.Help("fleet_frames_accepted_total", "Frames accepted by the wearable receiver.")
		reg.Help("fleet_frames_corrupt_total", "Frames rejected as corrupt after the noisy link.")
		reg.Help("fleet_bits_sent_total", "On-air bits transmitted (including symbol padding).")
		reg.Help("fleet_bit_errors_total", "Demodulated bits differing from the transmitted stream.")
		reg.Help("fleet_frames_blanked_total", "Frames framed but never radiated (brownouts).")
		reg.Help("fleet_frames_link_dropped_total", "Frames lost whole by the burst link.")
		reg.Help("fleet_arq_retransmits_total", "Link-layer retransmission attempts.")
		reg.Help("fleet_arq_recovered_total", "Frames delivered only via retransmission.")
		reg.Help("fleet_fec_corrected_bits_total", "Bit errors fixed by the Hamming decoder.")
		reg.Help("fleet_frames_concealed_total", "Gap frames synthesized by the wearable.")
	}
}
