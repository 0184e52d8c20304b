package fleet

import (
	"errors"
	"fmt"
	"math"

	"mindful/internal/comm"
	"mindful/internal/drift"
	"mindful/internal/fault"
	"mindful/internal/neural"
	"mindful/internal/wearable"
)

// Pipeline is one implant's full dataflow — synthetic cortex → ADC →
// frame → (FEC) → symbols → AWGN → hard decisions → (FEC decode) →
// frame → wearable → (decoder) — exposed one tick at a time. Run drives
// a fleet of these to completion; the serve gateway steps them under
// session control, pausing, resuming and checkpointing mid-stream.
//
// Internally the dataflow is a stage graph: source → transport →
// receiver → (decode), each a Stage sharing one Tick record per step.
// The builder assembles the graph so that every random draw comes from
// the same derived streams in the same order as the original hardwired
// pipeline. Pipeline.Step is the only step path: Run steps these to
// Config.Ticks, so a Pipeline stepped N times produces byte-for-byte the
// counters and digest Run reports for that implant over N ticks, with or
// without a decode stage attached. Snapshot/RestorePipeline extend that
// guarantee across a serialization boundary: a restored pipeline
// continues the exact draw sequences, so checkpoint/resume is invisible
// to the digest.
//
// A Pipeline is not safe for concurrent use; Close returns its pooled
// buffers and must be called exactly once when done.
type Pipeline struct {
	cfg  Config
	tick int
	res  ImplantResult
	tk   Tick

	stages []Stage
	src    *sourceStage
	trans  *transportStage
	recv   *receiverStage
	dec    *decodeStage // nil without a decoder
	adapt  *adaptStage  // nil unless tracking or adapting

	closed bool
}

// neuralConfig derives implant idx's neural source configuration.
func neuralConfig(cfg Config, idx int) neural.Config {
	ncfg := neural.DefaultConfig()
	ncfg.Channels = cfg.Channels
	ncfg.SampleRate = cfg.SampleRate
	ncfg.Seed = DeriveSeed(cfg.Seed, uint64(idx), StreamNeural)
	return ncfg
}

// intentAt returns the 2-D intent the generator is driven with at tick
// t: a point on the unit circle with period 200, phase-offset per
// implant.
func intentAt(phase float64, t int) (float64, float64) {
	theta := phase + 2*math.Pi*float64(t)/200
	return math.Cos(theta), math.Sin(theta)
}

// NewPipeline builds implant idx's pipeline under the fleet config.
// worker is recorded in the result as the shard label; it has no effect
// on the simulation.
func NewPipeline(cfg Config, idx, worker int) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if idx < 0 {
		return nil, fmt.Errorf("fleet: negative implant index %d", idx)
	}
	p := &Pipeline{
		cfg: cfg,
		res: ImplantResult{Index: idx, Worker: worker, Digest: fnvOffset},
	}

	// Golden-angle phase offset decorrelates the implants' intent
	// trajectories without extra randomness.
	src := &sourceStage{phase: 2 * math.Pi * 0.381966 * float64(idx)}
	gen, err := neural.New(neuralConfig(cfg, idx))
	if err != nil {
		return nil, err
	}
	src.gen = gen
	if cfg.Drift != nil {
		// nil process when the profile is disabled — the clean path stays
		// byte-identical.
		src.drift, err = drift.NewProcess(*cfg.Drift, gen,
			DeriveSeed(cfg.Seed, uint64(idx), StreamDrift))
		if err != nil {
			return nil, err
		}
	}
	src.adc = neural.ADC{Bits: cfg.SampleBits, FullScale: 2.0}
	if src.pkt, err = comm.NewPacketizer(cfg.SampleBits); err != nil {
		return nil, err
	}

	trans := &transportStage{}
	if trans.pm, err = comm.NewPackedModem(cfg.Modulation); err != nil {
		return nil, err
	}
	trans.channel = comm.NewAWGNChannel(math.Pow(10, cfg.EbN0dB/10),
		DeriveSeed(cfg.Seed, uint64(idx), StreamChannel))

	recv := &receiverStage{}
	if recv.rx, err = wearable.NewReceiver(0); err != nil {
		return nil, err
	}
	recv.rx.Concealment = cfg.Concealment

	// Fault processes, each on its own derived stream so the injected
	// history is a pure function of (seed, index) — never of scheduling.
	if cfg.Faults != nil {
		inj, err := fault.NewInjector(*cfg.Faults, cfg.Channels,
			DeriveSeed(cfg.Seed, uint64(idx), StreamLink),
			DeriveSeed(cfg.Seed, uint64(idx), StreamElectrode),
			DeriveSeed(cfg.Seed, uint64(idx), StreamBrownout))
		if err != nil {
			return nil, err
		}
		if inj != nil {
			trans.link, src.elec, src.brown = inj.Link, inj.Electrodes, inj.Brownout
			p.res.FaultyChannels = src.elec.FaultyChannels()
		}
	}
	if cfg.FECDepth > 0 {
		if trans.fec, err = comm.NewFEC(cfg.FECDepth); err != nil {
			return nil, err
		}
	}
	if cfg.ARQ.Enabled() {
		if trans.arq, err = comm.NewARQ(cfg.ARQ); err != nil {
			return nil, err
		}
	}

	// Pooled buffers: the tick path is allocation-free once these have
	// grown to steady-state capacity. Close returns them.
	src.framePtr = comm.GetByteBuf()
	if trans.link != nil {
		trans.linkPtr = comm.GetByteBuf()
	}

	p.src, p.trans, p.recv = src, trans, recv
	p.stages = []Stage{src, trans, recv}
	if cfg.Decode.Enabled() {
		dec, err := newDecodeStage(cfg, idx, &p.tk)
		if err != nil {
			return nil, err
		}
		// Concealed gap frames reach the decoder through the receiver's
		// hook, in synthesis order, ahead of the accepted frame.
		recv.rx.OnConcealed = func(f comm.Frame) { dec.accumulate(f.Samples, true) }
		p.dec = dec
		p.stages = append(p.stages, dec)
		if cfg.Decode.Track || cfg.Decode.Adapt {
			ad, err := newAdaptStage(cfg, idx, dec)
			if err != nil {
				return nil, err
			}
			dec.onBin = ad.observeBin
			p.adapt = ad
			p.stages = append(p.stages, ad)
		}
	}
	// Timing decoration happens last so every stage — including the
	// decode stage — is wrapped. Typed references (p.src etc.) stay
	// unwrapped: hooks and Result() read components directly.
	wrapTimed(p.stages, cfg.StageTiming)
	return p, nil
}

// Stages returns the stage names in step order — the pipeline's graph
// as built.
func (p *Pipeline) Stages() []string {
	names := make([]string, len(p.stages))
	for i, s := range p.stages {
		names[i] = s.Name()
	}
	return names
}

// OnDeliver installs a hook called for every frame that reaches the
// wearable: the tick it belongs to, the received bytes (which may be
// corrupt), and whether the receiver accepted them. The byte slice is
// recycled on the next tick — sinks must copy what they keep. Pass nil
// to detach.
func (p *Pipeline) OnDeliver(fn func(tick int, data []byte, accepted bool)) {
	p.recv.onDeliver = fn
}

// OnDecode installs a hook called for every decoder step: the tick the
// bin completed on, the state estimate, and how many of the bin's
// frames were concealed. The estimate slice is decoder-owned and reused
// — sinks must copy what they keep. A no-op without a decode stage;
// pass nil to detach.
func (p *Pipeline) OnDecode(fn func(tick int, estimate []float64, concealed int)) {
	if p.dec != nil {
		p.dec.onDecode = fn
	}
}

// OnRefit installs a hook called every time the adapt stage applies a
// decoder recalibration: the tick the refit landed on, the cumulative
// refit count, and the last instability (KL) reading (0 until the meter
// fills). A no-op unless the pipeline adapts; pass nil to detach.
func (p *Pipeline) OnRefit(fn func(tick int, refits int64, kl float64)) {
	if p.adapt != nil {
		p.adapt.onRefit = fn
	}
}

// Tick returns the number of ticks stepped so far.
func (p *Pipeline) Tick() int { return p.tick }

// Index returns the pipeline's implant index.
func (p *Pipeline) Index() int { return p.res.Index }

// Close returns the pipeline's pooled buffers. It is idempotent; the
// pipeline must not be stepped afterwards.
func (p *Pipeline) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, s := range p.stages {
		s.Close()
	}
}

// Step advances the pipeline one tick: synthesize, digitize, frame and
// (unless browned out) transmit with the configured recovery, stepping
// each stage of the graph in order over a shared Tick record. Ticks are
// unbounded — Config.Ticks is the planned run length Run enforces, not a
// property of the pipeline.
func (p *Pipeline) Step() error {
	if p.closed {
		return errors.New("fleet: step on closed pipeline")
	}
	t := p.tick
	p.tick++
	p.tk = Tick{N: t, Res: &p.res}
	for _, s := range p.stages {
		if err := s.Step(&p.tk); err != nil {
			return err
		}
	}
	return nil
}

// Result returns the pipeline's accounting so far. It is idempotent and
// may be called between steps.
func (p *Pipeline) Result() ImplantResult {
	res := p.res
	if p.trans.arq != nil {
		ast := p.trans.arq.Stats()
		res.Retransmits = ast.Retransmits
		res.Recovered = ast.Recovered
		res.ARQFailed = ast.Failed
		res.RetransmitBits = ast.RetransmitBits
	}
	st := p.recv.rx.Stats()
	res.Accepted, res.Corrupt, res.LostSeq = st.Accepted, st.Corrupted, st.LostSeq
	res.Stale, res.Concealed, res.ConcealedSamples = st.Stale, st.Concealed, st.ConcealedSamples
	if p.dec != nil {
		res.DecodedSteps = p.dec.steps
		res.DecodeConcealedBins = p.dec.concealedBins
		res.DecodeMACs = p.dec.macs
		res.DecodeDigest = p.dec.digest
	}
	if p.adapt != nil {
		res.DecodeSqErr = p.adapt.sqErr
		res.DecodeErrBins = p.adapt.errBins
		res.Refits = p.adapt.refits()
		res.LastKL = p.adapt.lastKL
	}
	if p.src.drift != nil {
		res.DriftEpochs = p.src.drift.Epochs()
		res.DriftTurnovers = p.src.drift.Turnovers()
		res.DriftUnitsLost = p.src.drift.Lost()
	}
	return res
}

// PipelineState is a pipeline's complete serializable mid-run state:
// every RNG stream position, every mutable component state, and the
// running counters. Snapshot at tick T, RestorePipeline, and the
// continuation is draw-for-draw identical to the uninterrupted run —
// the property the checkpoint tests pin by digest.
type PipelineState struct {
	// Tick is the number of ticks stepped before the snapshot.
	Tick int
	// Counters are the raw running counters, including the digest
	// accumulator. ARQ-, receiver- and decoder-derived fields are
	// excluded (they live in their components' states below); Err must
	// be nil.
	Counters ImplantResult

	Gen     neural.GeneratorState
	Channel comm.AWGNState
	PktSeq  uint32
	Rx      wearable.ReceiverState

	// ARQ accounting (zero value when ARQ is disabled) and the FEC
	// correction counter (0 when FEC is disabled).
	ARQ          comm.ARQStats
	FECCorrected int64

	// Fault-process states; nil when the config injects no faults.
	Link      *fault.BurstLinkState
	Brown     *fault.BrownoutState
	ElecGains []float64

	// Decode is the decode stage's state; nil without a decoder.
	Decode *DecodeState

	// Drift is the nonstationarity process's state; nil without drift.
	Drift *drift.ProcessState
	// Adapt is the adapt stage's state; nil unless tracking or adapting.
	Adapt *AdaptState
}

// Snapshot captures the pipeline's complete mid-run state by asking
// each stage for its slice. The pipeline remains usable afterwards.
func (p *Pipeline) Snapshot() (PipelineState, error) {
	if p.closed {
		return PipelineState{}, errors.New("fleet: snapshot of closed pipeline")
	}
	if p.res.Err != nil {
		return PipelineState{}, fmt.Errorf("fleet: snapshot of failed pipeline: %w", p.res.Err)
	}
	st := PipelineState{
		Tick:     p.tick,
		Counters: p.res,
	}
	for _, s := range p.stages {
		s.Snapshot(&st)
	}
	return st, nil
}

// RestorePipeline rebuilds a pipeline from a snapshot taken under the
// same config. Static structure is regenerated from the config; every
// RNG stream is fast-forwarded to its recorded position; mutable state
// and counters are overwritten. The config must match the one the
// snapshot was taken under — mismatched fault/FEC/ARQ/decoder shapes
// are rejected, and mismatched seeds fail the RNG position validation.
func RestorePipeline(cfg Config, st PipelineState) (*Pipeline, error) {
	if st.Tick < 0 {
		return nil, fmt.Errorf("fleet: negative checkpoint tick %d", st.Tick)
	}
	p, err := NewPipeline(cfg, st.Counters.Index, st.Counters.Worker)
	if err != nil {
		return nil, err
	}
	restoreErr := func(err error) (*Pipeline, error) {
		p.Close()
		return nil, err
	}
	if p.dec == nil && st.Decode != nil {
		return restoreErr(errors.New("fleet: checkpoint carries decoder state but config disables the decoder"))
	}
	if p.adapt == nil && st.Adapt != nil {
		return restoreErr(errors.New("fleet: checkpoint carries adapt state but config disables tracking"))
	}
	if p.src.drift == nil && st.Drift != nil {
		return restoreErr(errors.New("fleet: checkpoint carries drift state but config disables drift"))
	}
	for _, s := range p.stages {
		if err := s.Restore(cfg, &st); err != nil {
			return restoreErr(err)
		}
	}
	faulty := p.res.FaultyChannels
	p.res = st.Counters
	p.res.FaultyChannels = faulty // derived from config, not carried state
	p.tick = st.Tick
	return p, nil
}
