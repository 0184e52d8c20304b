// Package neural is the synthetic neural-interface substrate: it generates
// the multichannel cortical signals the rest of the system consumes.
//
// The paper's workloads are driven by real ECoG recordings; those are not
// available here, so this package produces statistically similar traces —
// per-channel Poisson spiking units with biphasic action-potential
// waveforms, a shared low-frequency field potential, and white sensor noise
// — plus the ADC that digitizes them to d-bit samples (the d of Eq. 6).
// Spiking rates are modulated by a latent "intent" state with cosine
// tuning, giving the linear decoders in internal/decode something real to
// decode. Ground-truth spike times are exposed so internal/dsp's detector
// and sorter can be validated.
package neural

import (
	"fmt"
	"math"

	"mindful/internal/detrand"
	"mindful/internal/units"
)

// Config describes a synthetic neural interface.
type Config struct {
	// Channels is the number of recording channels n.
	Channels int
	// SampleRate is the per-channel sampling frequency f.
	SampleRate units.Frequency
	// Seed makes the generated signal reproducible.
	Seed int64
	// ActiveFraction is the fraction of channels with a spiking unit in
	// range; the remainder record only field potential and noise. The
	// paper's channel-dropout optimization exploits exactly this redundancy.
	ActiveFraction float64
	// MeanRateHz is the baseline firing rate of active units.
	MeanRateHz float64
	// ModulationDepth is the fractional rate modulation by intent (0..1).
	ModulationDepth float64
	// NoiseRMS is the white-noise amplitude relative to spike peak (≈1.0).
	NoiseRMS float64
	// LFPAmplitude is the shared field-potential amplitude relative to
	// spike peak.
	LFPAmplitude float64
}

// DefaultConfig returns a 128-channel, 2 kHz interface matching the
// paper's baseline workload (the Berezutskaya speech dataset geometry).
func DefaultConfig() Config {
	return Config{
		Channels:        128,
		SampleRate:      units.Kilohertz(2),
		Seed:            1,
		ActiveFraction:  0.7,
		MeanRateHz:      20,
		ModulationDepth: 0.8,
		NoiseRMS:        0.12,
		LFPAmplitude:    0.25,
	}
}

// Generator produces multichannel neural samples.
type Generator struct {
	cfg Config
	rng *detrand.Rand

	active   []bool       // channel has a unit
	tuning   [][2]float64 // unit preferred direction (unit vector)
	theta    []float64    // drawn preferred-direction angles (static)
	drift    *unitDrift   // externally-applied nonstationarity; nil when stationary
	template []float64    // AP waveform
	// pending is a per-channel ring of upcoming additive waveform values:
	// channel c's ring is pending[c*len(template) : (c+1)*len(template)],
	// read at pendHead[c]. Fixed-size rings keep the spike mixing free of
	// per-spike allocations (overlapping spikes sum in place).
	pending  []float64
	pendHead []int
	intent   [2]float64
	// lfp state: second-order resonator excited by noise, normalized to
	// unit stationary RMS via lfpNorm.
	lfpY1, lfpY2 float64
	lfpA1, lfpA2 float64
	lfpNorm      float64
	t            int
	spikeLog     [][]int // ground-truth spike sample indices per channel
	logSpikes    bool
}

// New validates cfg and returns a generator.
func New(cfg Config) (*Generator, error) {
	if cfg.Channels <= 0 {
		return nil, fmt.Errorf("neural: channels %d must be positive", cfg.Channels)
	}
	if cfg.SampleRate.Hz() <= 0 {
		return nil, fmt.Errorf("neural: sample rate must be positive")
	}
	if cfg.ActiveFraction < 0 || cfg.ActiveFraction > 1 {
		return nil, fmt.Errorf("neural: active fraction %g outside [0,1]", cfg.ActiveFraction)
	}
	if cfg.MeanRateHz < 0 || cfg.NoiseRMS < 0 || cfg.LFPAmplitude < 0 {
		return nil, fmt.Errorf("neural: negative signal parameter")
	}
	if cfg.ModulationDepth < 0 || cfg.ModulationDepth > 1 {
		return nil, fmt.Errorf("neural: modulation depth %g outside [0,1]", cfg.ModulationDepth)
	}
	g := &Generator{
		cfg:      cfg,
		rng:      detrand.New(cfg.Seed),
		active:   make([]bool, cfg.Channels),
		tuning:   make([][2]float64, cfg.Channels),
		theta:    make([]float64, cfg.Channels),
		pendHead: make([]int, cfg.Channels),
		spikeLog: make([][]int, cfg.Channels),
		template: apTemplate(cfg.SampleRate),
	}
	g.pending = make([]float64, cfg.Channels*len(g.template))
	for c := 0; c < cfg.Channels; c++ {
		g.active[c] = g.rng.Float64() < cfg.ActiveFraction
		theta := g.rng.Float64() * 2 * math.Pi
		g.theta[c] = theta
		g.tuning[c] = [2]float64{math.Cos(theta), math.Sin(theta)}
	}
	// LFP resonator: damped ~10 Hz AR(2) driven by unit white noise,
	// normalized to unit stationary RMS so LFPAmplitude is meaningful.
	w := 2 * math.Pi * 10 * cfg.SampleRate.Period()
	r := 0.995
	g.lfpA1 = 2 * r * math.Cos(w)
	g.lfpA2 = -r * r
	// Stationary variance of an AR(2) process with unit drive variance.
	gamma0 := (1 - g.lfpA2) / ((1 + g.lfpA2) * ((1-g.lfpA2)*(1-g.lfpA2) - g.lfpA1*g.lfpA1))
	if gamma0 > 0 {
		g.lfpNorm = 1 / math.Sqrt(gamma0)
	} else {
		g.lfpNorm = 1
	}
	return g, nil
}

// apTemplate builds a biphasic action-potential waveform of ≈1.2 ms,
// normalized to unit negative peak.
func apTemplate(rate units.Frequency) []float64 {
	n := int(rate.Hz() * 1.2e-3)
	if n < 3 {
		n = 3
	}
	out := make([]float64, n)
	trough := 0.0
	for i := range out {
		x := float64(i) / float64(n-1) // 0..1
		// Sharp depolarization followed by a slower positive rebound.
		out[i] = -math.Exp(-math.Pow((x-0.2)/0.1, 2)) + 0.4*math.Exp(-math.Pow((x-0.55)/0.18, 2))
		if out[i] < trough {
			trough = out[i]
		}
	}
	// At low sample rates the grid can miss the continuous trough; rescale
	// so the sampled waveform always reaches −1.
	if trough < 0 {
		for i := range out {
			out[i] /= -trough
		}
	}
	return out
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// ActiveChannels returns the indices of channels with a spiking unit.
func (g *Generator) ActiveChannels() []int {
	var out []int
	for c, a := range g.active {
		if a {
			out = append(out, c)
		}
	}
	return out
}

// SetIntent updates the latent 2-D intent state (e.g. cursor velocity)
// that modulates unit firing rates. Components should be within [-1, 1].
func (g *Generator) SetIntent(x, y float64) { g.intent = [2]float64{x, y} }

// Intent returns the current latent state.
func (g *Generator) Intent() (x, y float64) { return g.intent[0], g.intent[1] }

// RecordSpikes enables ground-truth spike logging (for detector tests).
func (g *Generator) RecordSpikes(on bool) { g.logSpikes = on }

// unitDrift holds externally-applied nonstationarity state — per-unit
// multipliers on the configured firing rate and spike amplitude plus a
// liveness gate. It stays nil until SetUnitState is first called, so a
// stationary generator's hot path is untouched; once allocated, identity
// values (scale 1, alive) are bit-exact no-ops.
type unitDrift struct {
	rateScale []float64
	ampGain   []float64
	alive     []bool
}

// UnitThetas returns a copy of the drawn preferred-direction angles, one
// per channel — the day-0 tuning a nonstationarity process evolves from.
func (g *Generator) UnitThetas() []float64 {
	return append([]float64(nil), g.theta...)
}

// UnitActive returns a copy of the per-channel unit presence flags.
func (g *Generator) UnitActive() []bool {
	return append([]bool(nil), g.active...)
}

// SetUnitState overwrites one channel's unit parameters for
// nonstationarity modeling: theta is the absolute preferred-direction
// angle (replacing the drawn one), rateScale and ampGain multiply the
// configured firing rate and spike amplitude, and alive gates the unit —
// a unit lost to turnover stops spiking even on an active channel.
//
// The state set here is NOT part of GeneratorState: a restored generator
// comes back pristine and the owning drift process must re-apply its
// absolute state (drift.Process does exactly that).
func (g *Generator) SetUnitState(c int, theta, rateScale, ampGain float64, alive bool) error {
	if c < 0 || c >= g.cfg.Channels {
		return fmt.Errorf("neural: unit %d outside 0..%d", c, g.cfg.Channels-1)
	}
	for _, v := range [...]float64{theta, rateScale, ampGain} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("neural: non-finite unit state for channel %d", c)
		}
	}
	if rateScale < 0 || ampGain < 0 {
		return fmt.Errorf("neural: negative unit scale for channel %d", c)
	}
	if g.drift == nil {
		d := &unitDrift{
			rateScale: make([]float64, g.cfg.Channels),
			ampGain:   make([]float64, g.cfg.Channels),
			alive:     make([]bool, g.cfg.Channels),
		}
		for i := 0; i < g.cfg.Channels; i++ {
			d.rateScale[i], d.ampGain[i], d.alive[i] = 1, 1, true
		}
		g.drift = d
	}
	g.theta[c] = theta
	g.tuning[c] = [2]float64{math.Cos(theta), math.Sin(theta)}
	g.drift.rateScale[c] = rateScale
	g.drift.ampGain[c] = ampGain
	g.drift.alive[c] = alive
	return nil
}

// SpikeLog returns, per channel, the sample indices at which spikes were
// emitted since construction (only while RecordSpikes was enabled).
func (g *Generator) SpikeLog() [][]int { return g.spikeLog }

// Next produces one sample for every channel and advances time.
func (g *Generator) Next() []float64 {
	return g.NextInto(nil)
}

// NextInto produces one sample for every channel into dst (grown when too
// small) and advances time. Reusing the returned slice across ticks makes
// the sensing path allocation-free.
func (g *Generator) NextInto(dst []float64) []float64 {
	if cap(dst) < g.cfg.Channels {
		dst = make([]float64, g.cfg.Channels)
	}
	dst = dst[:g.cfg.Channels]
	g.fill(dst)
	return dst
}

// fill writes one sample per channel into dst (len = Channels), drawing
// from the generator's detrand stream (reference_test.go holds the same
// fill over a math/rand generator as the oracle).
func (g *Generator) fill(dst []float64) {
	dt := g.cfg.SampleRate.Period()
	raw := g.lfpA1*g.lfpY1 + g.lfpA2*g.lfpY2 + g.rng.NormFloat64()
	g.lfpY2, g.lfpY1 = g.lfpY1, raw
	lfp := raw * g.lfpNorm

	tlen := len(g.template)
	for c := 0; c < g.cfg.Channels; c++ {
		v := g.cfg.LFPAmplitude*lfp + g.cfg.NoiseRMS*g.rng.NormFloat64()
		ring := g.pending[c*tlen : (c+1)*tlen]
		head := g.pendHead[c]
		if g.active[c] && (g.drift == nil || g.drift.alive[c]) {
			rate := g.cfg.MeanRateHz * (1 + g.cfg.ModulationDepth*(g.tuning[c][0]*g.intent[0]+g.tuning[c][1]*g.intent[1]))
			amp := 1.0
			if g.drift != nil {
				// Multiplying by the identity scales (1.0) is bit-exact,
				// so a drift state that has not diverged from pristine
				// keeps the sample stream byte-identical.
				rate *= g.drift.rateScale[c]
				amp = g.drift.ampGain[c]
			}
			if rate < 0 {
				rate = 0
			}
			if g.rng.Float64() < rate*dt {
				// Emit a spike: mix the template additively into the
				// channel's pending ring (overlapping spikes sum).
				for k, tv := range g.template {
					ring[(head+k)%tlen] += tv * amp
				}
				if g.logSpikes {
					g.spikeLog[c] = append(g.spikeLog[c], g.t)
				}
			}
		}
		v += ring[head]
		ring[head] = 0
		g.pendHead[c] = (head + 1) % tlen
		dst[c] = v
	}
	g.t++
}

// NextBlock produces n consecutive samples; block[i][c] is channel c at
// time step i.
func (g *Generator) NextBlock(n int) [][]float64 {
	out := make([][]float64, n)
	flat := make([]float64, n*g.cfg.Channels)
	for i := range out {
		out[i] = flat[i*g.cfg.Channels : (i+1)*g.cfg.Channels]
		g.fill(out[i])
	}
	return out
}

// GeneratorState is a generator's serializable mid-run state: the RNG
// position plus every mutable field the tick loop touches. Channel
// activity and tuning are not stored — they are a pure function of the
// config and are rebuilt by RestoreGenerator. The ground-truth spike log
// is excluded (checkpointed pipelines do not record spikes).
type GeneratorState struct {
	RNG      detrand.State
	Pending  []float64
	PendHead []int
	Intent   [2]float64
	LFPY1    float64
	LFPY2    float64
	T        int
}

// Snapshot captures the generator's mid-run state. Restoring it with
// RestoreGenerator under the same Config continues the sample stream
// bit-identically.
func (g *Generator) Snapshot() GeneratorState {
	st := GeneratorState{
		RNG:      g.rng.State(),
		Pending:  append([]float64(nil), g.pending...),
		PendHead: append([]int(nil), g.pendHead...),
		Intent:   g.intent,
		LFPY1:    g.lfpY1,
		LFPY2:    g.lfpY2,
		T:        g.t,
	}
	return st
}

// RestoreGenerator rebuilds a generator from a snapshot taken under the
// same config. The static structure (active channels, tuning, template)
// is regenerated from cfg; the RNG is fast-forwarded to the recorded
// position; the mutable tick state is overwritten.
func RestoreGenerator(cfg Config, st GeneratorState) (*Generator, error) {
	g, err := New(cfg)
	if err != nil {
		return nil, err
	}
	rng, err := detrand.RestoreInto(g.rng, st.RNG)
	if err != nil {
		return nil, fmt.Errorf("neural: %w", err)
	}
	if len(st.Pending) != len(g.pending) {
		return nil, fmt.Errorf("neural: pending ring %d entries, config needs %d", len(st.Pending), len(g.pending))
	}
	if len(st.PendHead) != len(g.pendHead) {
		return nil, fmt.Errorf("neural: %d ring heads, config needs %d", len(st.PendHead), len(g.pendHead))
	}
	tlen := len(g.template)
	for c, h := range st.PendHead {
		if h < 0 || h >= tlen {
			return nil, fmt.Errorf("neural: ring head %d of channel %d outside [0, %d)", h, c, tlen)
		}
	}
	if st.T < 0 {
		return nil, fmt.Errorf("neural: negative tick counter %d", st.T)
	}
	g.rng = rng
	copy(g.pending, st.Pending)
	copy(g.pendHead, st.PendHead)
	g.intent = st.Intent
	g.lfpY1, g.lfpY2 = st.LFPY1, st.LFPY2
	g.t = st.T
	return g, nil
}

// ADC digitizes analog samples to unsigned d-bit codes, mid-rise, clipping
// at ±FullScale.
type ADC struct {
	// Bits is the sample width d (Eq. 6), 1..16.
	Bits int
	// FullScale is the analog amplitude mapped to the code extremes.
	FullScale float64
}

// DefaultADC is the 10-bit converter used in the paper's worked example.
func DefaultADC() ADC { return ADC{Bits: 10, FullScale: 2.0} }

// Levels returns the number of quantization levels.
func (a ADC) Levels() int { return 1 << a.Bits }

// Quantize converts an analog value to a code.
func (a ADC) Quantize(x float64) uint16 {
	if a.Bits < 1 || a.Bits > 16 {
		panic("neural: ADC bits outside 1..16")
	}
	lv := float64(a.Levels())
	code := math.Floor((x + a.FullScale) / (2 * a.FullScale) * lv)
	if code < 0 {
		code = 0
	}
	if code > lv-1 {
		code = lv - 1
	}
	return uint16(code)
}

// Dequantize converts a code back to the center of its analog bin.
func (a ADC) Dequantize(q uint16) float64 {
	lv := float64(a.Levels())
	return (float64(q)+0.5)/lv*2*a.FullScale - a.FullScale
}

// QuantizeBlock digitizes one multichannel sample vector.
func (a ADC) QuantizeBlock(xs []float64) []uint16 {
	return a.AppendQuantize(make([]uint16, 0, len(xs)), xs)
}

// AppendQuantize digitizes xs, appending the codes to dst — the
// allocation-free variant for buffer-reusing pipelines. The range check
// and scale constants are hoisted out of the sample loop; each code
// comes from Quantize's floating-point expression, so the output is
// identical.
func (a ADC) AppendQuantize(dst []uint16, xs []float64) []uint16 {
	if a.Bits < 1 || a.Bits > 16 {
		panic("neural: ADC bits outside 1..16")
	}
	lv := float64(a.Levels())
	den := 2 * a.FullScale
	for _, x := range xs {
		code := math.Floor((x + a.FullScale) / den * lv)
		if code < 0 {
			code = 0
		}
		if code > lv-1 {
			code = lv - 1
		}
		dst = append(dst, uint16(code))
	}
	return dst
}

// SensingThroughput returns Eq. (6): T_sensing(n) = d·n·f.
func SensingThroughput(channels, sampleBits int, f units.Frequency) units.DataRate {
	return units.BitsPerSecond(float64(sampleBits) * float64(channels) * f.Hz())
}
