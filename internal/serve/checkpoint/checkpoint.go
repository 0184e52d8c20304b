// Package checkpoint is the serve gateway's versioned snapshot codec: a
// session's full configuration and pipeline state serialized to a
// self-describing binary blob. A blob decoded by the same or a newer
// binary restores a pipeline that continues bit-identically — the fleet
// checkpoint tests' guarantee carried across a process boundary.
//
// Format (all integers big-endian):
//
//	magic    [4]byte  "MFCP"
//	version  uint16   format version (currently 2)
//	config   fixed-order session configuration
//	state    fixed-order pipeline state (see encode/decode below)
//
// Version 2 appends the decode-stage sections to the v1 layout: the
// decoder selection after the fault profile in the config, and the
// decoder's serialized state after the electrode gains in the state.
// The v1 prefix is unchanged, so v1 blobs decode under this package
// (decoder absent) bit-identically — the committed golden blob pins it.
//
// Version 3 appends the nonstationarity sections after the v2 layout:
// the drift profile and the adaptive-decoding knobs at the end of the
// config, and the drift-process and adapt-stage (instability meter,
// supervision rings, mutated decoder model) state at the end of the
// state. The v2 prefix is byte-identical, so v1 and v2 blobs decode
// under this package with drift and adaptation absent — the committed
// v1 and v2 golden blobs pin it.
//
// Versioning rules (documented in DESIGN.md): the version is bumped on
// any field change; decoders reject versions they do not know rather
// than guessing; fields are only ever appended within a version's
// lifetime during development, never reordered after release. Every
// length field is bounded, and truncated or trailing bytes are errors —
// malformed input must never panic or allocate unboundedly (the fuzz
// targets FuzzCheckpointDecode and FuzzDecodeCheckpointV2 pin this).
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"mindful/internal/comm"
	"mindful/internal/decode"
	"mindful/internal/detrand"
	"mindful/internal/drift"
	"mindful/internal/fault"
	"mindful/internal/fleet"
	"mindful/internal/units"
	"mindful/internal/wearable"
)

// Magic identifies a MINDFUL serve checkpoint blob.
var Magic = [4]byte{'M', 'F', 'C', 'P'}

// Version is the current format version. VersionV1 is the oldest
// format this package still decodes.
const (
	Version   uint16 = 3
	VersionV2 uint16 = 2
	VersionV1 uint16 = 1
)

// maxSliceLen bounds every decoded length field: larger values cannot
// come from a real session (pending buffers, gains and sample vectors
// are all O(channels)) and would let a forged header force a huge
// allocation.
const maxSliceLen = 1 << 20

// Decoding errors.
var (
	ErrBadMagic    = errors.New("checkpoint: bad magic")
	ErrBadVersion  = errors.New("checkpoint: unsupported version")
	ErrTruncated   = errors.New("checkpoint: truncated")
	ErrTrailing    = errors.New("checkpoint: trailing bytes")
	ErrLengthBound = errors.New("checkpoint: length field exceeds bound")
	ErrNonFinite   = errors.New("checkpoint: non-finite float field")
)

// SessionConfig is the serializable subset of fleet.Config a serve
// session runs under: everything that determines the simulation, nothing
// that binds to the process (observers, worker counts).
type SessionConfig struct {
	Channels     int     `json:"channels"`
	SampleRateHz float64 `json:"sample_rate_hz"`
	SampleBits   int     `json:"sample_bits"`
	// QAMBits selects the modem: 0 = OOK, 1 = BPSK, an even value n up
	// to comm.MaxQAMBits = square 2^n-QAM.
	QAMBits int     `json:"qam_bits"`
	EbN0dB  float64 `json:"ebn0_db"`
	Seed    int64   `json:"seed"`
	// Ticks is the session's planned run length; the tick loop stops
	// there (0 = run until deleted).
	Ticks int `json:"ticks"`

	ARQMaxRetries    int           `json:"arq_max_retries"`
	ARQSlotTime      time.Duration `json:"arq_slot_time"`
	ARQLatencyBudget time.Duration `json:"arq_latency_budget"`
	FECDepth         int           `json:"fec_depth"`
	// Concealment is the wearable strategy (0 none, 1 hold, 2 interp).
	Concealment int `json:"concealment"`

	// Faults optionally enables the deterministic fault profile.
	Faults *fault.Profile `json:"faults,omitempty"`

	// Decoder selects the in-loop decoder ("" or "none" disables;
	// "kalman", "wiener", "dnn" enable). DecodeBin, DecodeLags and
	// DecodeHidden tune it (0 = defaults). Added in format version 2;
	// v1 blobs decode with the zero values.
	Decoder      string `json:"decoder,omitempty"`
	DecodeBin    int    `json:"decode_bin,omitempty"`
	DecodeLags   int    `json:"decode_lags,omitempty"`
	DecodeHidden int    `json:"decode_hidden,omitempty"`

	// Drift optionally enables the nonstationarity process. Added in
	// format version 3; earlier blobs decode with it absent.
	Drift *drift.Profile `json:"drift,omitempty"`

	// Adaptive-decoding knobs (v3): Calibrate fits the day-0 decoder
	// from the implant's own simulated cortex; Track attaches the
	// instability meter and error scoring; Adapt additionally closes
	// the loop with periodic recalibration. The Refit*/Meter* fields
	// tune the loop (0 = fleet defaults).
	Calibrate   bool    `json:"calibrate,omitempty"`
	Track       bool    `json:"track,omitempty"`
	Adapt       bool    `json:"adapt,omitempty"`
	RefitEvery  int     `json:"refit_every,omitempty"`
	RefitBuffer int     `json:"refit_buffer,omitempty"`
	RefitBlend  float64 `json:"refit_blend,omitempty"`
	RefitJitter float64 `json:"refit_jitter,omitempty"`
	MeterRef    int     `json:"meter_ref,omitempty"`
	MeterWin    int     `json:"meter_win,omitempty"`
}

// decodeConfig parses the decoder selection.
func (c SessionConfig) decodeConfig() (fleet.DecodeConfig, error) {
	kind, err := fleet.ParseDecoderKind(c.Decoder)
	if err != nil {
		return fleet.DecodeConfig{}, err
	}
	return fleet.DecodeConfig{
		Kind:        kind,
		BinTicks:    c.DecodeBin,
		Lags:        c.DecodeLags,
		Hidden:      c.DecodeHidden,
		Calibrate:   c.Calibrate,
		Track:       c.Track,
		Adapt:       c.Adapt,
		RefitEvery:  c.RefitEvery,
		RefitBuffer: c.RefitBuffer,
		RefitBlend:  c.RefitBlend,
		RefitJitter: c.RefitJitter,
		MeterRef:    c.MeterRef,
		MeterWin:    c.MeterWin,
	}, nil
}

// FleetConfig expands the session config into a single-implant fleet
// config (Implants/Workers/Observer are the caller's business).
func (c SessionConfig) FleetConfig() (fleet.Config, error) {
	var mod comm.Modulation
	switch {
	case c.QAMBits == 0:
		mod = comm.OOK{}
	case c.QAMBits < 0 || c.QAMBits > comm.MaxQAMBits:
		return fleet.Config{}, fmt.Errorf("checkpoint: QAM bits %d outside 0..%d", c.QAMBits, comm.MaxQAMBits)
	case c.QAMBits == 1 || c.QAMBits%2 == 0:
		mod = comm.NewQAM(c.QAMBits)
	default:
		return fleet.Config{}, fmt.Errorf("checkpoint: unsupported QAM bits %d", c.QAMBits)
	}
	if c.Concealment < 0 || c.Concealment > int(wearable.ConcealInterp) {
		return fleet.Config{}, fmt.Errorf("checkpoint: unknown concealment %d", c.Concealment)
	}
	if c.Ticks < 0 {
		return fleet.Config{}, fmt.Errorf("checkpoint: negative ticks %d", c.Ticks)
	}
	dec, err := c.decodeConfig()
	if err != nil {
		return fleet.Config{}, err
	}
	cfg := fleet.Config{
		Implants:    1,
		Workers:     1,
		Ticks:       max(c.Ticks, 1),
		Channels:    c.Channels,
		SampleRate:  units.Hertz(c.SampleRateHz),
		SampleBits:  c.SampleBits,
		Modulation:  mod,
		EbN0dB:      c.EbN0dB,
		Seed:        c.Seed,
		Faults:      c.Faults,
		ARQ:         comm.ARQConfig{MaxRetries: c.ARQMaxRetries, SlotTime: c.ARQSlotTime, LatencyBudget: c.ARQLatencyBudget},
		FECDepth:    c.FECDepth,
		Concealment: wearable.Concealment(c.Concealment),
		Decode:      dec,
		Drift:       c.Drift,
	}
	if err := cfg.Validate(); err != nil {
		return fleet.Config{}, err
	}
	return cfg, nil
}

// Checkpoint is one session's frozen state.
type Checkpoint struct {
	Config SessionConfig
	State  fleet.PipelineState
}

// writer appends fixed-width fields.
type writer struct{ b []byte }

func (w *writer) u8(v uint8)    { w.b = append(w.b, v) }
func (w *writer) u16(v uint16)  { w.b = binary.BigEndian.AppendUint16(w.b, v) }
func (w *writer) u32(v uint32)  { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *writer) u64(v uint64)  { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *writer) i64(v int64)   { w.u64(uint64(v)) }
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *writer) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *writer) rng(st detrand.State) {
	w.i64(st.Seed)
	w.u64(st.Draws)
}

func (w *writer) f64s(v []float64) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.f64(x)
	}
}

func (w *writer) bools(v []bool) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.boolean(x)
	}
}

// reader consumes fixed-width fields, remembering the first error so
// call sites stay linear.
type reader struct {
	b   []byte
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = ErrTruncated
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *reader) i64() int64 { return int64(r.u64()) }

// f64 rejects non-finite values: no pipeline component can snapshot a
// NaN or Inf (decoders error on non-finite input before it reaches
// state), so any such bit pattern is a forged blob — and NaN would
// silently break the decode/encode round-trip invariant (NaN ≠ NaN).
func (r *reader) f64() float64 {
	v := math.Float64frombits(r.u64())
	if r.err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		r.err = ErrNonFinite
		return 0
	}
	return v
}

func (r *reader) boolean() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if r.err == nil {
			r.err = errors.New("checkpoint: non-canonical bool")
		}
		return false
	}
}

// length reads a u32 length field bounded by maxSliceLen.
func (r *reader) length() int {
	n := r.u32()
	if r.err == nil && n > maxSliceLen {
		r.err = ErrLengthBound
		return 0
	}
	// A length can never exceed the remaining bytes (every element is at
	// least one byte) — reject early instead of allocating on faith.
	if r.err == nil && int(n) > len(r.b) {
		r.err = ErrTruncated
		return 0
	}
	return int(n)
}

func (r *reader) rng() detrand.State {
	return detrand.State{Seed: r.i64(), Draws: r.u64()}
}

func (r *reader) f64s() []float64 {
	n := r.length()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64()
	}
	return out
}

func (r *reader) bools() []bool {
	n := r.length()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = r.boolean()
	}
	return out
}

// Encode serializes the checkpoint.
func Encode(cp Checkpoint) []byte {
	w := &writer{b: make([]byte, 0, 512)}
	w.b = append(w.b, Magic[:]...)
	w.u16(Version)

	// Session configuration.
	c := cp.Config
	w.u32(uint32(c.Channels))
	w.f64(c.SampleRateHz)
	w.u8(uint8(c.SampleBits))
	w.u8(uint8(c.QAMBits))
	w.f64(c.EbN0dB)
	w.i64(c.Seed)
	w.u64(uint64(c.Ticks))
	w.u32(uint32(c.ARQMaxRetries))
	w.i64(int64(c.ARQSlotTime))
	w.i64(int64(c.ARQLatencyBudget))
	w.u32(uint32(c.FECDepth))
	w.u8(uint8(c.Concealment))
	w.boolean(c.Faults != nil)
	if c.Faults != nil {
		p := c.Faults
		w.f64(p.BurstPGB)
		w.f64(p.BurstPBG)
		w.f64(p.BERGood)
		w.f64(p.BERBad)
		w.f64(p.FrameLoss)
		w.f64(p.DeadFrac)
		w.f64(p.StuckFrac)
		w.f64(p.DriftFrac)
		w.f64(p.DriftRate)
		w.f64(p.BrownoutProb)
		w.u32(uint32(p.BrownoutTicks))
	}
	// Decoder selection (v2). Snapshot validates the config, so an
	// unparseable decoder name cannot reach here; encode it as none.
	dec, _ := c.decodeConfig()
	w.u8(uint8(dec.Kind))
	w.u32(uint32(c.DecodeBin))
	w.u32(uint32(c.DecodeLags))
	w.u32(uint32(c.DecodeHidden))
	// Nonstationarity and adaptive-decoding config (v3).
	w.boolean(c.Drift != nil)
	if p := c.Drift; p != nil {
		w.f64(p.RotationSigma)
		w.f64(p.GainSigma)
		w.f64(p.BaselineSigma)
		w.f64(p.TurnoverProb)
		w.f64(p.LossProb)
		w.u32(uint32(p.EpochTicks))
	}
	w.boolean(c.Calibrate)
	w.boolean(c.Track)
	w.boolean(c.Adapt)
	w.u32(uint32(c.RefitEvery))
	w.u32(uint32(c.RefitBuffer))
	w.f64(c.RefitBlend)
	w.f64(c.RefitJitter)
	w.u32(uint32(c.MeterRef))
	w.u32(uint32(c.MeterWin))

	// Pipeline state.
	st := cp.State
	w.u64(uint64(st.Tick))
	res := st.Counters
	w.u32(uint32(res.Index))
	w.u32(uint32(res.Worker))
	for _, v := range []int64{
		res.Frames, res.Accepted, res.Corrupt, res.LostSeq,
		res.BitsSent, res.BitErrors, res.Blanked, res.LinkDropped,
		res.Retransmits, res.Recovered, res.ARQFailed, res.RetransmitBits,
		res.FECCorrected, res.Stale, res.Concealed, res.ConcealedSamples,
		res.DataBits, res.DataBitErrors,
	} {
		w.i64(v)
	}
	w.u32(uint32(res.FaultyChannels))
	w.u64(res.Digest)

	w.rng(st.Gen.RNG)
	w.u32(uint32(len(st.Gen.Pending)))
	for _, v := range st.Gen.Pending {
		w.f64(v)
	}
	w.u32(uint32(len(st.Gen.PendHead)))
	for _, v := range st.Gen.PendHead {
		w.u32(uint32(v))
	}
	w.f64(st.Gen.Intent[0])
	w.f64(st.Gen.Intent[1])
	w.f64(st.Gen.LFPY1)
	w.f64(st.Gen.LFPY2)
	w.u64(uint64(st.Gen.T))

	w.rng(st.Channel.RNG)
	w.u32(st.PktSeq)

	w.boolean(st.Rx.Started)
	w.u32(st.Rx.NextSeq)
	rs := st.Rx.Stats
	for _, v := range []int64{rs.Accepted, rs.Corrupted, rs.LostSeq, rs.Stale, rs.Concealed, rs.ConcealedSamples} {
		w.i64(v)
	}
	w.u32(uint32(len(st.Rx.LastSamples)))
	for _, v := range st.Rx.LastSamples {
		w.u16(v)
	}

	a := st.ARQ
	for _, v := range []int64{a.Sent, a.Delivered, a.Failed, a.Recovered, a.Retransmits, a.RetransmitBits, a.NACKs} {
		w.i64(v)
	}
	w.i64(st.FECCorrected)

	w.boolean(st.Link != nil)
	if st.Link != nil {
		w.rng(st.Link.RNG)
		w.boolean(st.Link.Bad)
		ls := st.Link.Stats
		for _, v := range []int64{ls.Frames, ls.DroppedFrames, ls.BitFlips, ls.BadBits} {
			w.i64(v)
		}
	}
	w.boolean(st.Brown != nil)
	if st.Brown != nil {
		w.rng(st.Brown.RNG)
		w.u32(uint32(st.Brown.Remaining))
		w.i64(st.Brown.Events)
		w.i64(st.Brown.Blanked)
	}
	w.u32(uint32(len(st.ElecGains)))
	for _, v := range st.ElecGains {
		w.f64(v)
	}

	// Decode-stage state (v2).
	w.boolean(st.Decode != nil)
	if d := st.Decode; d != nil {
		w.f64s(d.BinSums)
		w.u32(uint32(d.BinCount))
		w.u32(uint32(d.BinConcealed))
		w.i64(d.Steps)
		w.i64(d.ConcealedBins)
		w.i64(d.MACs)
		w.u64(d.Digest)
		w.f64s(d.KalmanX)
		w.f64s(d.KalmanP)
		w.f64s(d.WienerLag)
	}

	// Drift-process and adapt-stage state (v3).
	w.boolean(st.Drift != nil)
	if d := st.Drift; d != nil {
		w.rng(d.RNG)
		w.u64(uint64(d.Tick))
		w.f64s(d.Theta)
		w.f64s(d.RateScale)
		w.f64s(d.AmpGain)
		w.bools(d.Alive)
		w.i64(d.Epochs)
		w.i64(d.Turnovers)
		w.i64(d.Lost)
	}
	w.boolean(st.Adapt != nil)
	if a := st.Adapt; a != nil {
		m := a.Meter
		w.f64s(m.RefSum)
		w.f64s(m.RefSqSum)
		w.u32(uint32(m.RefCount))
		w.f64s(m.Ring)
		w.u32(uint32(m.RingHead))
		w.u32(uint32(m.RingFill))
		w.boolean(a.Recal != nil)
		if rc := a.Recal; rc != nil {
			w.f64s(rc.Obs)
			w.f64s(rc.Intent)
			w.u32(uint32(rc.Count))
			w.u32(uint32(rc.Head))
			w.u32(uint32(rc.SinceRefit))
			w.i64(rc.Refits)
		}
		w.boolean(a.Model != nil)
		if ms := a.Model; ms != nil {
			w.f64s(ms.H)
			w.f64s(ms.Q)
			w.f64s(ms.W)
			w.f64s(ms.K)
		}
		w.rng(a.RNG)
		w.f64(a.SqErr)
		w.i64(a.ErrBins)
		w.f64(a.LastKL)
		w.boolean(a.KLValid)
	}
	return w.b
}

// Decode parses a checkpoint blob. Malformed input returns an error —
// never a panic, never an unbounded allocation.
func Decode(buf []byte) (Checkpoint, error) {
	var cp Checkpoint
	r := &reader{b: buf}
	if m := r.take(4); r.err != nil || [4]byte(m) != Magic {
		if r.err == nil {
			r.err = ErrBadMagic
		}
		return cp, r.err
	}
	v := r.u16()
	if r.err == nil && (v < VersionV1 || v > Version) {
		r.err = fmt.Errorf("%w: %d (this build supports %d..%d)", ErrBadVersion, v, VersionV1, Version)
	}
	if r.err != nil {
		return cp, r.err
	}

	c := &cp.Config
	c.Channels = int(r.u32())
	c.SampleRateHz = r.f64()
	c.SampleBits = int(r.u8())
	c.QAMBits = int(r.u8())
	c.EbN0dB = r.f64()
	c.Seed = r.i64()
	c.Ticks = int(r.u64())
	c.ARQMaxRetries = int(r.u32())
	c.ARQSlotTime = time.Duration(r.i64())
	c.ARQLatencyBudget = time.Duration(r.i64())
	c.FECDepth = int(r.u32())
	c.Concealment = int(r.u8())
	if r.boolean() {
		var p fault.Profile
		p.BurstPGB = r.f64()
		p.BurstPBG = r.f64()
		p.BERGood = r.f64()
		p.BERBad = r.f64()
		p.FrameLoss = r.f64()
		p.DeadFrac = r.f64()
		p.StuckFrac = r.f64()
		p.DriftFrac = r.f64()
		p.DriftRate = r.f64()
		p.BrownoutProb = r.f64()
		p.BrownoutTicks = int(r.u32())
		c.Faults = &p
	}
	if v >= 2 {
		// v2 predates the fixed-gain decoder, so its blobs cannot name it.
		maxKind := fleet.DecoderDNN
		if v >= 3 {
			maxKind = fleet.DecoderFixed
		}
		kind := fleet.DecoderKind(r.u8())
		if r.err == nil && (kind < fleet.DecoderNone || kind > maxKind) {
			r.err = fmt.Errorf("checkpoint: unknown decoder kind %d", int(kind))
			return cp, r.err
		}
		if kind != fleet.DecoderNone {
			c.Decoder = kind.String()
		}
		c.DecodeBin = int(r.u32())
		c.DecodeLags = int(r.u32())
		c.DecodeHidden = int(r.u32())
	}
	if v >= 3 {
		if r.boolean() {
			var p drift.Profile
			p.RotationSigma = r.f64()
			p.GainSigma = r.f64()
			p.BaselineSigma = r.f64()
			p.TurnoverProb = r.f64()
			p.LossProb = r.f64()
			p.EpochTicks = int(r.u32())
			c.Drift = &p
		}
		c.Calibrate = r.boolean()
		c.Track = r.boolean()
		c.Adapt = r.boolean()
		c.RefitEvery = int(r.u32())
		c.RefitBuffer = int(r.u32())
		c.RefitBlend = r.f64()
		c.RefitJitter = r.f64()
		c.MeterRef = int(r.u32())
		c.MeterWin = int(r.u32())
	}

	st := &cp.State
	st.Tick = int(r.u64())
	res := &st.Counters
	res.Index = int(r.u32())
	res.Worker = int(r.u32())
	for _, dst := range []*int64{
		&res.Frames, &res.Accepted, &res.Corrupt, &res.LostSeq,
		&res.BitsSent, &res.BitErrors, &res.Blanked, &res.LinkDropped,
		&res.Retransmits, &res.Recovered, &res.ARQFailed, &res.RetransmitBits,
		&res.FECCorrected, &res.Stale, &res.Concealed, &res.ConcealedSamples,
		&res.DataBits, &res.DataBitErrors,
	} {
		*dst = r.i64()
	}
	res.FaultyChannels = int(r.u32())
	res.Digest = r.u64()

	st.Gen.RNG = r.rng()
	if n := r.length(); r.err == nil && n > 0 {
		st.Gen.Pending = make([]float64, n)
		for i := range st.Gen.Pending {
			st.Gen.Pending[i] = r.f64()
		}
	}
	if n := r.length(); r.err == nil && n > 0 {
		st.Gen.PendHead = make([]int, n)
		for i := range st.Gen.PendHead {
			st.Gen.PendHead[i] = int(r.u32())
		}
	}
	st.Gen.Intent[0] = r.f64()
	st.Gen.Intent[1] = r.f64()
	st.Gen.LFPY1 = r.f64()
	st.Gen.LFPY2 = r.f64()
	st.Gen.T = int(r.u64())

	st.Channel.RNG = r.rng()
	st.PktSeq = r.u32()

	st.Rx.Started = r.boolean()
	st.Rx.NextSeq = r.u32()
	rs := &st.Rx.Stats
	for _, dst := range []*int64{&rs.Accepted, &rs.Corrupted, &rs.LostSeq, &rs.Stale, &rs.Concealed, &rs.ConcealedSamples} {
		*dst = r.i64()
	}
	if n := r.length(); r.err == nil && n > 0 {
		st.Rx.LastSamples = make([]uint16, n)
		for i := range st.Rx.LastSamples {
			st.Rx.LastSamples[i] = r.u16()
		}
	}

	a := &st.ARQ
	for _, dst := range []*int64{&a.Sent, &a.Delivered, &a.Failed, &a.Recovered, &a.Retransmits, &a.RetransmitBits, &a.NACKs} {
		*dst = r.i64()
	}
	st.FECCorrected = r.i64()

	if r.boolean() {
		var ls fault.BurstLinkState
		ls.RNG = r.rng()
		ls.Bad = r.boolean()
		for _, dst := range []*int64{&ls.Stats.Frames, &ls.Stats.DroppedFrames, &ls.Stats.BitFlips, &ls.Stats.BadBits} {
			*dst = r.i64()
		}
		st.Link = &ls
	}
	if r.boolean() {
		var bs fault.BrownoutState
		bs.RNG = r.rng()
		bs.Remaining = int(r.u32())
		bs.Events = r.i64()
		bs.Blanked = r.i64()
		st.Brown = &bs
	}
	if n := r.length(); r.err == nil && n > 0 {
		st.ElecGains = make([]float64, n)
		for i := range st.ElecGains {
			st.ElecGains[i] = r.f64()
		}
	}

	if v >= 2 && r.boolean() {
		var d fleet.DecodeState
		d.BinSums = r.f64s()
		d.BinCount = int(r.u32())
		d.BinConcealed = int(r.u32())
		d.Steps = r.i64()
		d.ConcealedBins = r.i64()
		d.MACs = r.i64()
		d.Digest = r.u64()
		d.KalmanX = r.f64s()
		d.KalmanP = r.f64s()
		d.WienerLag = r.f64s()
		st.Decode = &d
	}

	if v >= 3 {
		if r.boolean() {
			var d drift.ProcessState
			d.RNG = r.rng()
			d.Tick = int(r.u64())
			d.Theta = r.f64s()
			d.RateScale = r.f64s()
			d.AmpGain = r.f64s()
			d.Alive = r.bools()
			d.Epochs = r.i64()
			d.Turnovers = r.i64()
			d.Lost = r.i64()
			st.Drift = &d
		}
		if r.boolean() {
			var a fleet.AdaptState
			a.Meter.RefSum = r.f64s()
			a.Meter.RefSqSum = r.f64s()
			a.Meter.RefCount = int(r.u32())
			a.Meter.Ring = r.f64s()
			a.Meter.RingHead = int(r.u32())
			a.Meter.RingFill = int(r.u32())
			if r.boolean() {
				var rc decode.RecalState
				rc.Obs = r.f64s()
				rc.Intent = r.f64s()
				rc.Count = int(r.u32())
				rc.Head = int(r.u32())
				rc.SinceRefit = int(r.u32())
				rc.Refits = r.i64()
				a.Recal = &rc
			}
			if r.boolean() {
				var ms decode.ModelState
				ms.H = r.f64s()
				ms.Q = r.f64s()
				ms.W = r.f64s()
				ms.K = r.f64s()
				a.Model = &ms
			}
			a.RNG = r.rng()
			a.SqErr = r.f64()
			a.ErrBins = r.i64()
			a.LastKL = r.f64()
			a.KLValid = r.boolean()
			st.Adapt = &a
		}
	}

	if r.err != nil {
		return Checkpoint{}, r.err
	}
	if len(r.b) != 0 {
		return Checkpoint{}, ErrTrailing
	}
	return cp, nil
}

// Snapshot freezes a pipeline under its session config into a blob. The
// config is validated first so the blob always round-trips.
func Snapshot(cfg SessionConfig, p *fleet.Pipeline) ([]byte, error) {
	if _, err := cfg.FleetConfig(); err != nil {
		return nil, err
	}
	st, err := p.Snapshot()
	if err != nil {
		return nil, err
	}
	return Encode(Checkpoint{Config: cfg, State: st}), nil
}

// Restore decodes a blob and rebuilds its pipeline mid-stream. The
// returned config is the session configuration the blob was taken under.
func Restore(buf []byte) (SessionConfig, *fleet.Pipeline, error) {
	cp, err := Decode(buf)
	if err != nil {
		return SessionConfig{}, nil, err
	}
	fcfg, err := cp.Config.FleetConfig()
	if err != nil {
		return SessionConfig{}, nil, err
	}
	p, err := fleet.RestorePipeline(fcfg, cp.State)
	if err != nil {
		return SessionConfig{}, nil, err
	}
	return cp.Config, p, nil
}

// NewPipeline builds a fresh pipeline for the session config at implant
// index idx.
func NewPipeline(cfg SessionConfig, idx int) (*fleet.Pipeline, error) {
	fcfg, err := cfg.FleetConfig()
	if err != nil {
		return nil, err
	}
	return fleet.NewPipeline(fcfg, idx, 0)
}
