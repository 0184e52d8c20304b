package fleet

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"mindful/internal/decode"
	"mindful/internal/detrand"
	"mindful/internal/fixed"
	"mindful/internal/neural"
	"mindful/internal/nn"
)

// DecoderKind selects the control algorithm a pipeline's decode stage
// runs — the paper's §2.3/§5 comparison axis (Kalman/Wiener baselines vs
// a fixed-point DNN) inside one serving loop.
type DecoderKind int

// The decoder kinds.
const (
	// DecoderNone disables the decode stage; the pipeline stops at the
	// wearable receiver, exactly as before decoders existed.
	DecoderNone DecoderKind = iota
	// DecoderKalman runs a full (time-varying gain) Kalman filter.
	DecoderKalman
	// DecoderWiener runs a lagged linear (Wiener) filter.
	DecoderWiener
	// DecoderDNN runs a small MLP through the 8-bit fixed-point
	// datapath model — the implanted-ASIC inference arm.
	DecoderDNN
	// DecoderFixed runs a steady-state (fixed-gain) Kalman decoder — the
	// constant-coefficient form implanted hardware executes, derived by
	// converging the Kalman covariance recursion at fit time.
	DecoderFixed
)

// String returns the kind's CLI spelling.
func (k DecoderKind) String() string {
	switch k {
	case DecoderNone:
		return "none"
	case DecoderKalman:
		return "kalman"
	case DecoderWiener:
		return "wiener"
	case DecoderDNN:
		return "dnn"
	case DecoderFixed:
		return "fixed"
	}
	return fmt.Sprintf("DecoderKind(%d)", int(k))
}

// ParseDecoderKind maps a CLI spelling to its kind.
func ParseDecoderKind(s string) (DecoderKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "none", "off":
		return DecoderNone, nil
	case "kalman":
		return DecoderKalman, nil
	case "wiener":
		return DecoderWiener, nil
	case "dnn":
		return DecoderDNN, nil
	case "fixed", "ssgain":
		return DecoderFixed, nil
	}
	return DecoderNone, fmt.Errorf("fleet: unknown decoder %q (want none, kalman, wiener, dnn or fixed)", s)
}

// intentDims is the decoded state dimensionality: the 2-D intent
// (cos θ, sin θ) every implant's generator is driven with.
const intentDims = 2

// DecodeConfig configures the optional decode stage.
type DecodeConfig struct {
	// Kind selects the decoder; DecoderNone (the zero value) disables
	// the stage entirely.
	Kind DecoderKind
	// BinTicks is the number of frames (accepted or concealed) averaged
	// into one decoder observation; 0 means 4.
	BinTicks int
	// Lags is the Wiener filter's lag depth; 0 means 3.
	Lags int
	// Hidden is the DNN decoder's hidden-layer width; 0 means 16.
	Hidden int

	// Calibrate fits the linear decoders on a twin-generator calibration
	// pass — a day-0 recording of the implant's own synthetic cortex
	// (same StreamNeural seed), digitized and binned exactly like the
	// live pipeline — instead of the legacy synthetic-gains set. False
	// keeps the historical decoder and its digest pins byte-identical.
	Calibrate bool
	// Track attaches the adapt stage in observation-only mode: decode
	// error against true intent and instability (KL) metrics, no model
	// mutation.
	Track bool
	// Adapt enables closed-loop recalibration (CLDA): the adapt stage
	// feeds supervised pairs into a Recalibrator that periodically
	// refits the decoder. Implies tracking. Linear decoders only.
	Adapt bool

	// RefitEvery is the adaptation period in decoder bins; 0 means 16.
	RefitEvery int
	// RefitBuffer is the supervision ring capacity in bins; 0 means 64.
	RefitBuffer int
	// RefitBlend is the smoothbatch λ in (0, 1]; 0 means 0.5.
	RefitBlend float64
	// RefitJitter is the σ of the Gaussian jitter added to the intent
	// labels fed to the recalibrator (imperfect intent inference). The
	// two per-bin jitter variates are drawn from StreamRefit regardless
	// of the width, so jitter ladders share one random history.
	RefitJitter float64
	// MeterRef and MeterWin are the instability meter's reference and
	// sliding window lengths in bins; 0 means 16 each.
	MeterRef int
	MeterWin int
}

// Enabled reports whether the config adds a decode stage.
func (c DecodeConfig) Enabled() bool { return c.Kind != DecoderNone }

// withDefaults fills the zero knobs.
func (c DecodeConfig) withDefaults() DecodeConfig {
	if c.BinTicks == 0 {
		c.BinTicks = 4
	}
	if c.Lags == 0 {
		c.Lags = 3
	}
	if c.Hidden == 0 {
		c.Hidden = 16
	}
	if c.RefitEvery == 0 {
		c.RefitEvery = 16
	}
	if c.RefitBuffer == 0 {
		c.RefitBuffer = 64
	}
	if c.RefitBlend == 0 {
		c.RefitBlend = 0.5
	}
	if c.MeterRef == 0 {
		c.MeterRef = 16
	}
	if c.MeterWin == 0 {
		c.MeterWin = 16
	}
	return c
}

// MaxMeterBins bounds MeterRef and MeterWin: 64× the 16-bin default.
// The meter's window ring holds MeterWin × Channels values, so at
// MaxChannels it stays at 64 MiB.
const MaxMeterBins = 1024

// Validate checks the configuration.
func (c DecodeConfig) Validate() error {
	if c.Kind < DecoderNone || c.Kind > DecoderFixed {
		return fmt.Errorf("fleet: unknown decoder kind %d", int(c.Kind))
	}
	if c.BinTicks < 0 {
		return fmt.Errorf("fleet: negative decode bin %d", c.BinTicks)
	}
	if c.Lags < 0 {
		return fmt.Errorf("fleet: negative decode lags %d", c.Lags)
	}
	if c.Hidden < 0 {
		return fmt.Errorf("fleet: negative decode hidden width %d", c.Hidden)
	}
	if (c.Calibrate || c.Track || c.Adapt) && c.Kind == DecoderNone {
		return errors.New("fleet: calibrate/track/adapt require a decoder")
	}
	if c.Kind == DecoderDNN {
		if c.Adapt {
			return errors.New("fleet: the DNN decoder does not support adaptation")
		}
		if c.Calibrate {
			return errors.New("fleet: the DNN decoder does not support calibration fitting")
		}
	}
	if c.RefitEvery < 0 || c.RefitBuffer < 0 {
		return fmt.Errorf("fleet: negative refit parameters %d/%d", c.RefitEvery, c.RefitBuffer)
	}
	if c.RefitBlend < 0 || c.RefitBlend > 1 || math.IsNaN(c.RefitBlend) {
		return fmt.Errorf("fleet: refit blend %g outside [0, 1]", c.RefitBlend)
	}
	if c.RefitJitter < 0 || math.IsNaN(c.RefitJitter) || math.IsInf(c.RefitJitter, 0) {
		return fmt.Errorf("fleet: refit jitter %g must be finite and non-negative", c.RefitJitter)
	}
	if c.MeterRef < 0 || c.MeterWin < 0 || c.MeterRef > MaxMeterBins || c.MeterWin > MaxMeterBins {
		return fmt.Errorf("fleet: meter windows %d/%d outside 0..%d", c.MeterRef, c.MeterWin, MaxMeterBins)
	}
	if c.Adapt {
		rc := decode.RecalConfig{Buffer: c.RefitBuffer, Every: c.RefitEvery, Blend: c.RefitBlend}
		if err := rc.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// newSessionDecoder builds implant idx's decoder. Everything is a pure
// function of (seed, index): the calibration set is synthesized from the
// same intent trajectory the generator follows, observed through random
// per-channel tuning gains drawn from the implant's StreamDecode stream,
// so a restored session refits the identical decoder.
func newSessionDecoder(cfg Config, idx int) (decode.Decoder, error) {
	dc := cfg.Decode.withDefaults()
	rng := detrand.New(DeriveSeed(cfg.Seed, uint64(idx), StreamDecode))
	ch := cfg.Channels

	if dc.Kind == DecoderDNN {
		net, err := nn.NewNetwork(1, ch,
			nn.RandDense(rng, ch, dc.Hidden, nn.ReLU),
			nn.RandDense(rng, dc.Hidden, intentDims, nn.Identity))
		if err != nil {
			return nil, err
		}
		return decode.NewNNDecoder(net, fixed.Q4_3)
	}

	var states, obs [][]float64
	if dc.Calibrate {
		var err error
		if states, obs, err = calibrationPass(cfg, idx, dc); err != nil {
			return nil, err
		}
	} else {
		// Legacy calibration set: intent states x_t on the unit circle
		// (period 200, as the pipeline drives them) observed as
		// z = G·x + noise through random tuning gains.
		const calTicks = 192
		gains := make([]float64, ch*intentDims)
		for i := range gains {
			gains[i] = 2*rng.Float64() - 1
		}
		states = make([][]float64, calTicks)
		obs = make([][]float64, calTicks)
		for t := 0; t < calTicks; t++ {
			theta := 2 * math.Pi * float64(t) / 200
			x := []float64{math.Cos(theta), math.Sin(theta)}
			z := make([]float64, ch)
			for c := 0; c < ch; c++ {
				z[c] = gains[c*intentDims]*x[0] + gains[c*intentDims+1]*x[1] + 0.05*rng.NormFloat64()
			}
			states[t], obs[t] = x, z
		}
	}
	switch dc.Kind {
	case DecoderKalman:
		k, err := decode.FitKalman(states, obs)
		if err != nil {
			return nil, err
		}
		// The calibration states follow the intent circle almost exactly,
		// so the fitted process noise collapses to ~0 and the filter
		// would trust dead reckoning over the electrodes. Floor W with
		// the same process-noise prior the recalibrator assumes; the
		// legacy synthetic fit is left untouched to keep its digest pins.
		if dc.Calibrate {
			floorProcessNoise(k)
		}
		return k, nil
	case DecoderWiener:
		return decode.FitWiener(states, obs, dc.Lags, 1e-3)
	case DecoderFixed:
		k, err := decode.FitKalman(states, obs)
		if err != nil {
			return nil, err
		}
		// Always floored: without it the Riccati recursion crawls toward
		// a vanishing gain and fails to converge.
		floorProcessNoise(k)
		return k.SteadyStateGain(500, 1e-9)
	}
	return nil, fmt.Errorf("fleet: unknown decoder kind %d", int(dc.Kind))
}

// floorProcessNoise adds the recalibrator's process-noise prior to the
// fitted Kalman W diagonal.
func floorProcessNoise(k *decode.Kalman) {
	for i := 0; i < k.W.Rows; i++ {
		k.W.Data[i*k.W.Cols+i] += 0.01
	}
}

// calibrationPass replays implant idx's own day-0 cortex — a twin
// generator on the same StreamNeural seed, before any drift has been
// applied — through the live digitization path (ADC quantization, ±1
// normalization, BinTicks binning) and returns the (intent, rates)
// pairs the decoder is fit on. This is the bench recording the drift
// sweep measures from: the fitted model matches the live signal's units
// exactly at tick 0 and decays as the substrate drifts away from it.
// Electrode faults are deliberately excluded — calibration models a
// supervised recording session, not the degraded field array.
func calibrationPass(cfg Config, idx int, dc DecodeConfig) (states, obs [][]float64, err error) {
	gen, err := neural.New(neuralConfig(cfg, idx))
	if err != nil {
		return nil, nil, err
	}
	adc := neural.ADC{Bits: cfg.SampleBits, FullScale: 2.0}
	maxCode := float64((uint32(1) << cfg.SampleBits) - 1)
	phase := 2 * math.Pi * 0.381966 * float64(idx)

	// Enough bins that the readout and covariance fits generalize: Q is
	// channels² parameters, so the pass scales with the array rather
	// than using a fixed window.
	calBins := 4 * cfg.Channels
	if calBins < 64 {
		calBins = 64
	}
	states = make([][]float64, 0, calBins)
	obs = make([][]float64, 0, calBins)
	sums := make([]float64, cfg.Channels)
	var sampleBuf []float64
	var codeBuf []uint16
	count := 0
	for t := 0; t < calBins*dc.BinTicks; t++ {
		gen.SetIntent(intentAt(phase, t))
		sampleBuf = gen.NextInto(sampleBuf)
		codeBuf = adc.AppendQuantize(codeBuf[:0], sampleBuf)
		for c, s := range codeBuf {
			sums[c] += 2*float64(s)/maxCode - 1
		}
		count++
		if count == dc.BinTicks {
			row := make([]float64, cfg.Channels)
			for c := range row {
				row[c] = sums[c] / float64(count)
				sums[c] = 0
			}
			ix, iy := intentAt(phase, t)
			states = append(states, []float64{ix, iy})
			obs = append(obs, row)
			count = 0
		}
	}
	return states, obs, nil
}

// decodeStage closes the loop the wearable left open: accepted and
// concealed frames are binned into per-channel mean rates (normalized to
// the ADC's ±1 span) and each full bin is stepped through the session's
// decoder. Concealed frames enter the bin in arrival order — the
// receiver synthesizes them, via OnConcealed, before the accepted frame
// that revealed the gap — so the decode digest is as schedule-free as
// the frame digest. The decoder's output digest is kept separate from
// the frame digest: a pipeline with a decoder produces byte-identical
// frame digests to one without.
type decodeStage struct {
	cfg      DecodeConfig // defaults applied
	dec      decode.Decoder
	channels int
	maxCode  float64
	tk       *Tick // the pipeline's shared tick record

	binSums      []float64
	obsBuf       []float64
	binCount     int
	binConcealed int

	steps         int64
	concealedBins int64
	macs          int64
	digest        uint64
	err           error

	onDecode func(tick int, estimate []float64, concealed int)
	// onBin is the adapt stage's tap: it additionally sees the binned
	// observation the decoder was stepped on. Both slices are stage-owned
	// and reused next bin.
	onBin func(tick int, obs, estimate []float64, concealed int)
}

func newDecodeStage(cfg Config, idx int, tk *Tick) (*decodeStage, error) {
	dec, err := newSessionDecoder(cfg, idx)
	if err != nil {
		return nil, err
	}
	return &decodeStage{
		cfg:      cfg.Decode.withDefaults(),
		dec:      dec,
		channels: cfg.Channels,
		maxCode:  float64((uint32(1) << cfg.SampleBits) - 1),
		tk:       tk,
		binSums:  make([]float64, cfg.Channels),
		obsBuf:   make([]float64, cfg.Channels),
		digest:   fnvOffset,
	}, nil
}

func (d *decodeStage) Name() string { return "decode" }

// accumulate folds one frame's samples into the current bin, flushing a
// full bin through the decoder. It is called both from Step (accepted
// frames) and from the receiver's OnConcealed hook (synthesized gap
// frames, which arrive first).
func (d *decodeStage) accumulate(samples []uint16, concealed bool) {
	if d.err != nil {
		return
	}
	if len(samples) != d.channels {
		d.err = fmt.Errorf("fleet: decode stage got %d samples, want %d", len(samples), d.channels)
		return
	}
	for c, s := range samples {
		d.binSums[c] += 2*float64(s)/d.maxCode - 1
	}
	d.binCount++
	if concealed {
		d.binConcealed++
	}
	if d.binCount >= d.cfg.BinTicks {
		d.flush()
	}
}

// flush steps the decoder on the bin mean and folds the estimate into
// the decode digest.
func (d *decodeStage) flush() {
	n := float64(d.binCount)
	for c := range d.obsBuf {
		d.obsBuf[c] = d.binSums[c] / n
	}
	x, err := d.dec.Step(d.obsBuf)
	if err != nil {
		d.err = err
		return
	}
	d.steps++
	d.macs += int64(d.dec.MACsPerStep())
	if d.binConcealed > 0 {
		d.concealedBins++
	}
	for _, v := range x {
		bits := math.Float64bits(v)
		for shift := 56; shift >= 0; shift -= 8 {
			d.digest = (d.digest ^ (bits >> uint(shift) & 0xFF)) * fnvPrime
		}
	}
	if d.onDecode != nil {
		d.onDecode(d.tk.N, x, d.binConcealed)
	}
	if d.onBin != nil {
		d.onBin(d.tk.N, d.obsBuf, x, d.binConcealed)
	}
	for c := range d.binSums {
		d.binSums[c] = 0
	}
	d.binCount, d.binConcealed = 0, 0
}

func (d *decodeStage) Step(tk *Tick) error {
	// Concealed frames were already accumulated during the receiver
	// stage's Step (the OnConcealed hook fires inside Receive); only the
	// accepted frame remains.
	if tk.RxOK {
		d.accumulate(tk.RxFrame.Samples, false)
	}
	return d.err
}

// DecodeState is the decode stage's serializable mid-run state: the
// partial bin, the accounting, and the decoder's temporal state (kind
// dependent — the DNN is stateless between steps).
type DecodeState struct {
	// BinSums is the partial bin's per-channel sum; BinCount the frames
	// accumulated so far and BinConcealed how many were synthesized.
	BinSums      []float64
	BinCount     int
	BinConcealed int

	// Steps, ConcealedBins and MACs are the running decode counters;
	// Digest the FNV-1a hash over every decoded estimate.
	Steps         int64
	ConcealedBins int64
	MACs          int64
	Digest        uint64

	// KalmanX/KalmanP carry the Kalman estimate and covariance;
	// WienerLag the lag history, newest vector first. The fixed-gain
	// decoder's estimate reuses KalmanX (its only temporal state).
	// Unused fields are nil for the other kinds.
	KalmanX   []float64
	KalmanP   []float64
	WienerLag []float64
}

func (d *decodeStage) Snapshot(st *PipelineState) {
	ds := &DecodeState{
		BinSums:       append([]float64(nil), d.binSums...),
		BinCount:      d.binCount,
		BinConcealed:  d.binConcealed,
		Steps:         d.steps,
		ConcealedBins: d.concealedBins,
		MACs:          d.macs,
		Digest:        d.digest,
	}
	switch dec := d.dec.(type) {
	case *decode.Kalman:
		ks := dec.State()
		ds.KalmanX, ds.KalmanP = ks.X, ks.P
	case *decode.FixedGain:
		ds.KalmanX = dec.State()
	case *decode.Wiener:
		ds.WienerLag = dec.State().Lagged
	}
	st.Decode = ds
}

func (d *decodeStage) Restore(cfg Config, st *PipelineState) error {
	ds := st.Decode
	if ds == nil {
		return errors.New("fleet: checkpoint carries no decoder state but config enables a decoder")
	}
	if len(ds.BinSums) != d.channels {
		return fmt.Errorf("fleet: decode bin width %d does not match %d channels", len(ds.BinSums), d.channels)
	}
	if ds.BinCount < 0 || ds.BinCount >= d.cfg.BinTicks || ds.BinConcealed < 0 || ds.BinConcealed > ds.BinCount {
		return fmt.Errorf("fleet: decode bin fill %d/%d invalid for bin of %d", ds.BinConcealed, ds.BinCount, d.cfg.BinTicks)
	}
	copy(d.binSums, ds.BinSums)
	d.binCount, d.binConcealed = ds.BinCount, ds.BinConcealed
	d.steps, d.concealedBins = ds.Steps, ds.ConcealedBins
	d.macs, d.digest = ds.MACs, ds.Digest
	switch dec := d.dec.(type) {
	case *decode.Kalman:
		return dec.RestoreState(decode.KalmanState{X: ds.KalmanX, P: ds.KalmanP})
	case *decode.FixedGain:
		return dec.RestoreState(ds.KalmanX)
	case *decode.Wiener:
		return dec.RestoreState(decode.WienerState{Lagged: ds.WienerLag})
	}
	return nil
}

func (d *decodeStage) Close() {}
