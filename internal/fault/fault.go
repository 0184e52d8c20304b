// Package fault is the deterministic fault-injection framework for the
// implant → wearable pipeline: the failure modes a chronic implant
// actually meets — burst interference on the uplink, whole-frame loss,
// dying electrodes, transmitter brownouts — modeled as seeded, replayable
// processes. Every injector is driven by its own detrand stream, so a
// pipeline that derives per-purpose seeds (fleet.DeriveSeed) reproduces
// the exact same fault history regardless of scheduling or worker count.
//
// The package deliberately depends only on obs: comm, implant, wearable
// and fleet all consume it without import cycles.
package fault

import (
	"fmt"

	"mindful/internal/detrand"
)

// Profile describes a fault environment at unit intensity. The zero value
// injects nothing; Scale derives weaker or stronger environments for
// degradation sweeps.
type Profile struct {
	// Gilbert–Elliott burst channel: a two-state (good/bad) bit-level
	// process generalizing the i.i.d. LossyLink. Transitions are drawn
	// per transported bit.
	BurstPGB float64 // P(good → bad) per bit
	BurstPBG float64 // P(bad → good) per bit
	BERGood  float64 // bit error rate in the good state
	BERBad   float64 // bit error rate in the bad state

	// FrameLoss is the probability a transported frame vanishes outright
	// (deep fade, MAC collision) before any bit-level corruption.
	FrameLoss float64

	// Electrode faults, as fractions of the channel count. A channel is
	// assigned at most one fault kind, deterministically from the seed.
	DeadFrac  float64 // channel reads 0 (open circuit)
	StuckFrac float64 // channel reads a constant offset (shorted)
	DriftFrac float64 // channel gain decays multiplicatively
	DriftRate float64 // per-tick relative gain decay of drifting channels

	// Brownout: per-tick onset probability of a supply sag that blanks
	// the transmitter for BrownoutTicks consecutive ticks.
	BrownoutProb  float64
	BrownoutTicks int
}

// DefaultProfile returns a deliberately harsh unit-intensity environment:
// bursty uplink, occasional deep fades, a fifth of the array degraded and
// sporadic brownouts — the stress point fault sweeps scale down from.
func DefaultProfile() Profile {
	return Profile{
		BurstPGB:      0.002,
		BurstPBG:      0.05,
		BERGood:       0,
		BERBad:        0.08,
		FrameLoss:     0.15,
		DeadFrac:      0.08,
		StuckFrac:     0.04,
		DriftFrac:     0.08,
		DriftRate:     0.002,
		BrownoutProb:  0.01,
		BrownoutTicks: 4,
	}
}

// clamp01 bounds probabilities and fractions to [0, 1].
func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Scale returns the profile with every probability, fraction and rate
// multiplied by intensity (clamped to [0, 1]); window lengths are kept.
// Scale(0) disables all injection, Scale(1) is the profile itself.
func (p Profile) Scale(intensity float64) Profile {
	if intensity < 0 {
		intensity = 0
	}
	out := p
	out.BurstPGB = clamp01(p.BurstPGB * intensity)
	out.BERGood = clamp01(p.BERGood * intensity)
	out.BERBad = clamp01(p.BERBad * intensity)
	out.FrameLoss = clamp01(p.FrameLoss * intensity)
	out.DeadFrac = clamp01(p.DeadFrac * intensity)
	out.StuckFrac = clamp01(p.StuckFrac * intensity)
	out.DriftFrac = clamp01(p.DriftFrac * intensity)
	// Electrode fractions partition the array: renormalize when scaling
	// pushes their sum past 1 (the whole array faulted).
	if sum := out.DeadFrac + out.StuckFrac + out.DriftFrac; sum > 1 {
		out.DeadFrac /= sum
		out.StuckFrac /= sum
		out.DriftFrac /= sum
	}
	out.DriftRate = clamp01(p.DriftRate * intensity)
	out.BrownoutProb = clamp01(p.BrownoutProb * intensity)
	// BurstPBG is a recovery rate: scaling it down with intensity would
	// make bursts longer, which is the intent of "more intense".
	if intensity > 0 {
		out.BurstPBG = clamp01(p.BurstPBG / intensity)
	} else {
		out.BurstPBG = 1
	}
	return out
}

// Validate checks the profile's ranges.
func (p Profile) Validate() error {
	probs := []struct {
		name string
		v    float64
	}{
		{"BurstPGB", p.BurstPGB}, {"BurstPBG", p.BurstPBG},
		{"BERGood", p.BERGood}, {"BERBad", p.BERBad},
		{"FrameLoss", p.FrameLoss}, {"DeadFrac", p.DeadFrac},
		{"StuckFrac", p.StuckFrac}, {"DriftFrac", p.DriftFrac},
		{"DriftRate", p.DriftRate}, {"BrownoutProb", p.BrownoutProb},
	}
	for _, pr := range probs {
		if !(pr.v >= 0 && pr.v <= 1) { // also rejects NaN
			return fmt.Errorf("fault: %s %g outside [0, 1]", pr.name, pr.v)
		}
	}
	if p.DeadFrac+p.StuckFrac+p.DriftFrac > 1 {
		return fmt.Errorf("fault: electrode fault fractions sum to %g > 1",
			p.DeadFrac+p.StuckFrac+p.DriftFrac)
	}
	if p.BrownoutTicks < 0 {
		return fmt.Errorf("fault: negative brownout window %d", p.BrownoutTicks)
	}
	return nil
}

// Enabled reports whether the profile injects anything at all.
func (p Profile) Enabled() bool {
	return p.BurstPGB > 0 || p.BERGood > 0 || p.FrameLoss > 0 ||
		p.DeadFrac > 0 || p.StuckFrac > 0 || p.DriftFrac > 0 ||
		p.BrownoutProb > 0
}

// LinkStats accounts a burst link's injections.
type LinkStats struct {
	// Frames and DroppedFrames count transports and whole-frame losses.
	Frames        int64
	DroppedFrames int64
	// BitFlips counts injected bit errors; BadBits the bits transported
	// while the channel sat in the bad state.
	BitFlips int64
	BadBits  int64
}

// BurstLink is a seeded Gilbert–Elliott channel: each transported bit
// first advances the good/bad state, then flips with the state's BER. A
// whole-frame loss draw precedes the bit process. The link never mutates
// the caller's buffer (see AppendTransport).
type BurstLink struct {
	p     Profile
	bad   bool
	rng   *detrand.Rand
	stats LinkStats
}

// NewBurstLink returns a seeded burst link for the profile's channel
// parameters (electrode and brownout fields are ignored).
func NewBurstLink(p Profile, seed int64) (*BurstLink, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &BurstLink{p: p, rng: detrand.New(seed)}, nil
}

// BurstLinkState is a link's serializable mid-run state.
type BurstLinkState struct {
	RNG   detrand.State
	Bad   bool
	Stats LinkStats
}

// Snapshot captures the link's RNG position, Gilbert–Elliott state and
// accounting.
func (l *BurstLink) Snapshot() BurstLinkState {
	return BurstLinkState{RNG: l.rng.State(), Bad: l.bad, Stats: l.stats}
}

// RestoreBurstLink rebuilds a link mid-stream under the same profile.
func RestoreBurstLink(p Profile, st BurstLinkState) (*BurstLink, error) {
	l, err := NewBurstLink(p, st.RNG.Seed)
	if err != nil {
		return nil, err
	}
	l.rng = detrand.Restore(st.RNG)
	l.bad = st.Bad
	l.stats = st.Stats
	return l, nil
}

// Transport returns a possibly-corrupted copy of buf, or nil when the
// frame is lost outright. buf itself is never modified.
func (l *BurstLink) Transport(buf []byte) []byte {
	return l.AppendTransport(nil, buf)
}

// linkDraws is the burst link's uniform buffer: one stack block of
// uniforms, refilled from detrand's bulk sampler as the walk consumes it.
const linkDraws = 256

// AppendTransport appends the transported frame to dst and returns the
// extended slice, or nil when the frame is dropped whole. The input
// buffer is never aliased or modified, so pooled sender frames stay
// pristine; passing a recycled dst[:0] makes the path allocation-free.
//
// Each bit first advances the Gilbert–Elliott state with one uniform,
// then, when the state's BER is positive, flips with a second — one
// fixed draw order so replays are exact. The uniforms come from a stack
// buffer filled in bulk. A bit takes at least minDraws uniforms (two
// when both BERs are positive, else one), so a refill of at most
// minDraws per remaining bit never draws past where the walk stops: the
// stream position after a frame is the one per-bit Float64 calls leave.
func (l *BurstLink) AppendTransport(dst, buf []byte) []byte {
	l.stats.Frames++
	p := &l.p
	if p.FrameLoss > 0 && l.rng.Float64() < p.FrameLoss {
		l.stats.DroppedFrames++
		return nil
	}
	base := len(dst)
	dst = append(dst, buf...)
	if p.BurstPGB == 0 && p.BERGood == 0 && !l.bad {
		return dst // channel can never corrupt: skip the bit walk
	}
	out := dst[base:]
	minDraws := 1
	if p.BERGood > 0 && p.BERBad > 0 {
		minDraws = 2
	}
	var u [linkDraws]float64
	k, n := 0, 0 // next unread uniform, uniforms in u
	bad := l.bad
	var badBits, flips int64
	nbits := len(buf) * 8
	for i := 0; i < nbits; i++ {
		if k == n {
			n, k = min(linkDraws, minDraws*(nbits-i)), 0
			l.rng.FillFloat64(u[:n])
		}
		x := u[k]
		k++
		if bad {
			bad = x >= p.BurstPBG
		} else {
			bad = x < p.BurstPGB
		}
		ber := p.BERGood
		if bad {
			ber = p.BERBad
			badBits++
		}
		if ber > 0 {
			if k == n {
				n, k = min(linkDraws, 1+minDraws*(nbits-1-i)), 0
				l.rng.FillFloat64(u[:n])
			}
			if u[k] < ber {
				out[i>>3] ^= 0x80 >> (i & 7)
				flips++
			}
			k++
		}
	}
	l.bad = bad
	l.stats.BadBits += badBits
	l.stats.BitFlips += flips
	return dst
}

// Stats returns the link's accounting so far.
func (l *BurstLink) Stats() LinkStats { return l.stats }

// ChannelState classifies one electrode.
type ChannelState uint8

// Electrode states.
const (
	ChannelOK ChannelState = iota
	ChannelDead
	ChannelStuck
	ChannelDrift
)

// String names the state.
func (s ChannelState) String() string {
	switch s {
	case ChannelOK:
		return "ok"
	case ChannelDead:
		return "dead"
	case ChannelStuck:
		return "stuck"
	case ChannelDrift:
		return "drift"
	default:
		return "unknown"
	}
}

// ElectrodeBank applies per-channel front-end faults to raw sample
// vectors before digitization: dead channels read 0, stuck channels a
// constant offset, drifting channels decay multiplicatively each tick.
// Fault assignment is a pure function of (profile, channels, seed).
type ElectrodeBank struct {
	states []ChannelState
	stuck  []float64
	gain   []float64
	rate   float64
	faulty int
}

// NewElectrodeBank deterministically assigns fault kinds to channels by
// the profile's fractions. Stuck offsets are drawn in [-1, 1] (the
// neural substrate's normalized full scale).
func NewElectrodeBank(channels int, p Profile, seed int64) (*ElectrodeBank, error) {
	if channels < 1 {
		return nil, fmt.Errorf("fault: need at least one channel, got %d", channels)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := detrand.New(seed)
	b := &ElectrodeBank{
		states: make([]ChannelState, channels),
		stuck:  make([]float64, channels),
		gain:   make([]float64, channels),
		rate:   p.DriftRate,
	}
	for c := 0; c < channels; c++ {
		b.gain[c] = 1
		// Two draws per channel regardless of outcome keep the
		// assignment stable under profile scaling.
		u, v := rng.Float64(), rng.Float64()
		switch {
		case u < p.DeadFrac:
			b.states[c] = ChannelDead
		case u < p.DeadFrac+p.StuckFrac:
			b.states[c] = ChannelStuck
			b.stuck[c] = 2*v - 1
		case u < p.DeadFrac+p.StuckFrac+p.DriftFrac:
			b.states[c] = ChannelDrift
		}
		if b.states[c] != ChannelOK {
			b.faulty++
		}
	}
	return b, nil
}

// Apply overwrites faulty channels in samples in place and advances the
// drift state by one tick. Channels beyond the bank's width are left
// untouched. Safe on a nil bank (no-op).
func (b *ElectrodeBank) Apply(samples []float64) {
	if b == nil {
		return
	}
	n := len(samples)
	if n > len(b.states) {
		n = len(b.states)
	}
	for c := 0; c < n; c++ {
		switch b.states[c] {
		case ChannelDead:
			samples[c] = 0
		case ChannelStuck:
			samples[c] = b.stuck[c]
		case ChannelDrift:
			b.gain[c] *= 1 - b.rate
			samples[c] *= b.gain[c]
		}
	}
}

// Gains returns a copy of the per-channel drift gains — the bank's only
// mutable state (assignment is a pure function of profile, channels and
// seed).
func (b *ElectrodeBank) Gains() []float64 {
	if b == nil {
		return nil
	}
	return append([]float64(nil), b.gain...)
}

// RestoreGains overwrites the per-channel drift gains of a bank rebuilt
// from the same (profile, channels, seed) triple.
func (b *ElectrodeBank) RestoreGains(gains []float64) error {
	if b == nil {
		if len(gains) == 0 {
			return nil
		}
		return fmt.Errorf("fault: %d gains for a nil electrode bank", len(gains))
	}
	if len(gains) != len(b.gain) {
		return fmt.Errorf("fault: %d gains for a %d-channel bank", len(gains), len(b.gain))
	}
	copy(b.gain, gains)
	return nil
}

// FaultyChannels returns the number of channels with any fault assigned.
func (b *ElectrodeBank) FaultyChannels() int {
	if b == nil {
		return 0
	}
	return b.faulty
}

// State returns one channel's fault classification.
func (b *ElectrodeBank) State(channel int) ChannelState {
	if b == nil || channel < 0 || channel >= len(b.states) {
		return ChannelOK
	}
	return b.states[channel]
}

// Brownout models transient supply sags that blank the transmitter: each
// tick outside a sag starts one with probability BrownoutProb, blanking
// that tick and the following BrownoutTicks−1.
type Brownout struct {
	prob      float64
	window    int
	remaining int
	rng       *detrand.Rand
	events    int64
	blanked   int64
}

// NewBrownout returns a seeded brownout process for the profile's
// brownout parameters.
func NewBrownout(p Profile, seed int64) (*Brownout, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	window := p.BrownoutTicks
	if window < 1 {
		window = 1
	}
	return &Brownout{prob: p.BrownoutProb, window: window, rng: detrand.New(seed)}, nil
}

// BrownoutState is a brownout process's serializable mid-run state.
type BrownoutState struct {
	RNG       detrand.State
	Remaining int
	Events    int64
	Blanked   int64
}

// Snapshot captures the process's RNG position, open sag window and
// accounting.
func (b *Brownout) Snapshot() BrownoutState {
	return BrownoutState{RNG: b.rng.State(), Remaining: b.remaining, Events: b.events, Blanked: b.blanked}
}

// RestoreBrownout rebuilds a brownout process mid-stream under the same
// profile.
func RestoreBrownout(p Profile, st BrownoutState) (*Brownout, error) {
	b, err := NewBrownout(p, st.RNG.Seed)
	if err != nil {
		return nil, err
	}
	if st.Remaining < 0 || st.Remaining >= b.window {
		return nil, fmt.Errorf("fault: brownout remaining %d outside window %d", st.Remaining, b.window)
	}
	b.rng = detrand.Restore(st.RNG)
	b.remaining = st.Remaining
	b.events = st.Events
	b.blanked = st.Blanked
	return b, nil
}

// Tick advances one tick and reports whether the transmitter is blanked.
// Safe on a nil brownout (always powered).
func (b *Brownout) Tick() bool {
	if b == nil {
		return false
	}
	if b.remaining > 0 {
		b.remaining--
		b.blanked++
		return true
	}
	if b.prob > 0 && b.rng.Float64() < b.prob {
		b.events++
		b.blanked++
		b.remaining = b.window - 1
		return true
	}
	return false
}

// Events returns the number of brownout onsets so far.
func (b *Brownout) Events() int64 {
	if b == nil {
		return 0
	}
	return b.events
}

// BlankedTicks returns the total ticks spent blanked.
func (b *Brownout) BlankedTicks() int64 {
	if b == nil {
		return 0
	}
	return b.blanked
}

// Injector bundles one pipeline's fault processes. Nil fields disable
// the corresponding injection; a nil *Injector disables everything.
type Injector struct {
	Link       *BurstLink
	Electrodes *ElectrodeBank
	Brownout   *Brownout
}

// NewInjector builds the full set of processes for one pipeline from
// independent seeds (one per process, e.g. via fleet.DeriveSeed). A
// profile with nothing enabled returns a nil injector.
func NewInjector(p Profile, channels int, linkSeed, electrodeSeed, brownoutSeed int64) (*Injector, error) {
	if !p.Enabled() {
		return nil, nil
	}
	link, err := NewBurstLink(p, linkSeed)
	if err != nil {
		return nil, err
	}
	bank, err := NewElectrodeBank(channels, p, electrodeSeed)
	if err != nil {
		return nil, err
	}
	bo, err := NewBrownout(p, brownoutSeed)
	if err != nil {
		return nil, err
	}
	return &Injector{Link: link, Electrodes: bank, Brownout: bo}, nil
}
