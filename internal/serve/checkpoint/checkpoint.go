// Package checkpoint is the serve gateway's versioned snapshot codec: a
// session's full configuration and pipeline state serialized to a
// self-describing binary blob. A blob decoded by the same or a newer
// binary restores a pipeline that continues bit-identically — the fleet
// checkpoint tests' guarantee carried across a process boundary.
//
// Format (all integers big-endian):
//
//	magic    [4]byte  "MFCP"
//	version  uint16   format version (currently 3)
//	config   fixed-order session configuration
//	state    fixed-order pipeline state
//
// The config and state layout is written down once, in a single field
// walk ((*codec).checkpoint) that Encode runs to append each field and
// Decode runs to read it back, so the two directions cannot drift apart.
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
// v1 and v2 golden blobs pin it, and the v3 golden pins the v3 layout
// itself.
//
// Versioning rules (documented in DESIGN.md): the version is bumped on
// any field change; decoders reject versions they do not know rather
// than guessing; fields are only ever appended within a version's
// lifetime during development, never reordered after release. Every
// length field is bounded, and truncated or trailing bytes are errors —
// malformed input must never panic or allocate unboundedly (the fuzz
// targets FuzzCheckpointDecode, FuzzDecodeCheckpointV2 and
// FuzzDriftCheckpointV3 pin this, and FuzzCodecMatchesOracle checks the
// walk against the two-sided codec it replaced).
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

// codec walks a checkpoint's fields in format order. Writing (rd false),
// each helper appends the value it points at to b; reading, b holds the
// unread input, and each helper consumes its bytes and stores the value,
// remembering the first error so the walk stays linear — after an error
// nothing more is stored. v is the format version being written or read.
type codec struct {
	b   []byte
	rd  bool
	v   uint16
	err error
}

// take consumes n input bytes (nil once an error is latched).
func (c *codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if len(c.b) < n {
		c.err = ErrTruncated
		return nil
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out
}

func (c *codec) u8(p *uint8) {
	if !c.rd {
		c.b = append(c.b, *p)
	} else if b := c.take(1); b != nil {
		*p = b[0]
	}
}

func (c *codec) u16(p *uint16) {
	if !c.rd {
		c.b = binary.BigEndian.AppendUint16(c.b, *p)
	} else if b := c.take(2); b != nil {
		*p = binary.BigEndian.Uint16(b)
	}
}

func (c *codec) u32(p *uint32) {
	if !c.rd {
		c.b = binary.BigEndian.AppendUint32(c.b, *p)
	} else if b := c.take(4); b != nil {
		*p = binary.BigEndian.Uint32(b)
	}
}

func (c *codec) u64(p *uint64) {
	if !c.rd {
		c.b = binary.BigEndian.AppendUint64(c.b, *p)
	} else if b := c.take(8); b != nil {
		*p = binary.BigEndian.Uint64(b)
	}
}

func (c *codec) i64(p *int64) {
	v := uint64(*p)
	if c.u64(&v); c.rd {
		*p = int64(v)
	}
}

// n8, n32 and n64 carry an int at a fixed wire width (truncating on
// write, as the format always has).
func (c *codec) n8(p *int) {
	v := uint8(*p)
	if c.u8(&v); c.rd {
		*p = int(v)
	}
}

func (c *codec) n32(p *int) {
	v := uint32(*p)
	if c.u32(&v); c.rd {
		*p = int(v)
	}
}

func (c *codec) n64(p *int) {
	v := uint64(*p)
	if c.u64(&v); c.rd {
		*p = int(v)
	}
}

// f64 rejects non-finite values on read: no pipeline component can
// snapshot a NaN or Inf (decoders error on non-finite input before it
// reaches state), so any such bit pattern is a forged blob — and NaN
// would silently break the decode/encode round-trip invariant (NaN ≠ NaN).
func (c *codec) f64(p *float64) {
	v := math.Float64bits(*p)
	if c.u64(&v); !c.rd || c.err != nil {
		return
	}
	if f := math.Float64frombits(v); math.IsNaN(f) || math.IsInf(f, 0) {
		c.err = ErrNonFinite
	} else {
		*p = f
	}
}

// boolean is one byte, 0 or 1; any other byte is an error on read.
func (c *codec) boolean(p *bool) {
	var v uint8
	if *p {
		v = 1
	}
	if c.u8(&v); !c.rd || c.err != nil {
		return
	}
	if v > 1 {
		c.err = errors.New("checkpoint: non-canonical bool")
	} else {
		*p = v == 1
	}
}

func (c *codec) rng(p *detrand.State) {
	c.i64(&p.Seed)
	c.u64(&p.Draws)
}

// i64s carries a fixed run of int64 fields.
func (c *codec) i64s(ps ...*int64) {
	for _, p := range ps {
		c.i64(p)
	}
}

// slice carries a u32 length, then each element through elem. Reading
// bounds the length by maxSliceLen and by the unread bytes (every element
// is at least one byte) before allocating anything; an empty slice reads
// back as nil.
func slice[T any](c *codec, s *[]T, elem func(*codec, *T)) {
	n := uint32(len(*s))
	if c.u32(&n); c.rd {
		switch {
		case c.err != nil:
			return
		case n > maxSliceLen:
			c.err = ErrLengthBound
			return
		case int(n) > len(c.b):
			c.err = ErrTruncated
			return
		case n == 0:
			return
		}
		*s = make([]T, n)
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

// optional carries a presence flag, then the pointee through walk when
// it is present. Reading allocates the pointee.
func optional[T any](c *codec, p **T, walk func(*T)) {
	present := *p != nil
	if c.boolean(&present); !present || c.err != nil {
		return
	}
	if c.rd {
		*p = new(T)
	}
	walk(*p)
}

// decoderKind carries the decoder selection as its kind byte — the one
// field whose wire form is not its Go form. Snapshot validates the config,
// so an unparseable name cannot reach the writer; it is written as none.
// Reading rejects kinds the blob's version cannot name: v2 predates the
// fixed-gain decoder.
func (c *codec) decoderKind(name *string) {
	kind, _ := fleet.ParseDecoderKind(*name)
	k := uint8(kind)
	if c.u8(&k); !c.rd || c.err != nil {
		return
	}
	maxKind := fleet.DecoderDNN
	if c.v >= 3 {
		maxKind = fleet.DecoderFixed
	}
	if kind = fleet.DecoderKind(k); kind > maxKind {
		c.err = fmt.Errorf("checkpoint: unknown decoder kind %d", int(kind))
	} else if kind != fleet.DecoderNone {
		*name = kind.String()
	}
}

// checkpoint walks every field of cp once, in format order: the layout
// of the blob after its magic and version. A field is added here, and
// only here, behind the version gate of the format that introduced it.
func (c *codec) checkpoint(cp *Checkpoint) {
	// Session configuration.
	cfg := &cp.Config
	c.n32(&cfg.Channels)
	c.f64(&cfg.SampleRateHz)
	c.n8(&cfg.SampleBits)
	c.n8(&cfg.QAMBits)
	c.f64(&cfg.EbN0dB)
	c.i64(&cfg.Seed)
	c.n64(&cfg.Ticks)
	c.n32(&cfg.ARQMaxRetries)
	c.i64((*int64)(&cfg.ARQSlotTime))
	c.i64((*int64)(&cfg.ARQLatencyBudget))
	c.n32(&cfg.FECDepth)
	c.n8(&cfg.Concealment)
	optional(c, &cfg.Faults, func(p *fault.Profile) {
		c.f64(&p.BurstPGB)
		c.f64(&p.BurstPBG)
		c.f64(&p.BERGood)
		c.f64(&p.BERBad)
		c.f64(&p.FrameLoss)
		c.f64(&p.DeadFrac)
		c.f64(&p.StuckFrac)
		c.f64(&p.DriftFrac)
		c.f64(&p.DriftRate)
		c.f64(&p.BrownoutProb)
		c.n32(&p.BrownoutTicks)
	})
	// Decoder selection (v2).
	if c.v >= 2 {
		c.decoderKind(&cfg.Decoder)
		c.n32(&cfg.DecodeBin)
		c.n32(&cfg.DecodeLags)
		c.n32(&cfg.DecodeHidden)
	}
	// Nonstationarity and adaptive-decoding config (v3).
	if c.v >= 3 {
		optional(c, &cfg.Drift, func(p *drift.Profile) {
			c.f64(&p.RotationSigma)
			c.f64(&p.GainSigma)
			c.f64(&p.BaselineSigma)
			c.f64(&p.TurnoverProb)
			c.f64(&p.LossProb)
			c.n32(&p.EpochTicks)
		})
		c.boolean(&cfg.Calibrate)
		c.boolean(&cfg.Track)
		c.boolean(&cfg.Adapt)
		c.n32(&cfg.RefitEvery)
		c.n32(&cfg.RefitBuffer)
		c.f64(&cfg.RefitBlend)
		c.f64(&cfg.RefitJitter)
		c.n32(&cfg.MeterRef)
		c.n32(&cfg.MeterWin)
	}

	// Pipeline state.
	st := &cp.State
	c.n64(&st.Tick)
	res := &st.Counters
	c.n32(&res.Index)
	c.n32(&res.Worker)
	c.i64s(
		&res.Frames, &res.Accepted, &res.Corrupt, &res.LostSeq,
		&res.BitsSent, &res.BitErrors, &res.Blanked, &res.LinkDropped,
		&res.Retransmits, &res.Recovered, &res.ARQFailed, &res.RetransmitBits,
		&res.FECCorrected, &res.Stale, &res.Concealed, &res.ConcealedSamples,
		&res.DataBits, &res.DataBitErrors,
	)
	c.n32(&res.FaultyChannels)
	c.u64(&res.Digest)

	gen := &st.Gen
	c.rng(&gen.RNG)
	slice(c, &gen.Pending, (*codec).f64)
	slice(c, &gen.PendHead, (*codec).n32)
	c.f64(&gen.Intent[0])
	c.f64(&gen.Intent[1])
	c.f64(&gen.LFPY1)
	c.f64(&gen.LFPY2)
	c.n64(&gen.T)

	c.rng(&st.Channel.RNG)
	c.u32(&st.PktSeq)

	c.boolean(&st.Rx.Started)
	c.u32(&st.Rx.NextSeq)
	rs := &st.Rx.Stats
	c.i64s(&rs.Accepted, &rs.Corrupted, &rs.LostSeq, &rs.Stale, &rs.Concealed, &rs.ConcealedSamples)
	slice(c, &st.Rx.LastSamples, (*codec).u16)

	a := &st.ARQ
	c.i64s(&a.Sent, &a.Delivered, &a.Failed, &a.Recovered, &a.Retransmits, &a.RetransmitBits, &a.NACKs)
	c.i64(&st.FECCorrected)

	optional(c, &st.Link, func(ls *fault.BurstLinkState) {
		c.rng(&ls.RNG)
		c.boolean(&ls.Bad)
		c.i64s(&ls.Stats.Frames, &ls.Stats.DroppedFrames, &ls.Stats.BitFlips, &ls.Stats.BadBits)
	})
	optional(c, &st.Brown, func(bs *fault.BrownoutState) {
		c.rng(&bs.RNG)
		c.n32(&bs.Remaining)
		c.i64(&bs.Events)
		c.i64(&bs.Blanked)
	})
	slice(c, &st.ElecGains, (*codec).f64)

	// Decode-stage state (v2).
	if c.v >= 2 {
		optional(c, &st.Decode, func(d *fleet.DecodeState) {
			slice(c, &d.BinSums, (*codec).f64)
			c.n32(&d.BinCount)
			c.n32(&d.BinConcealed)
			c.i64s(&d.Steps, &d.ConcealedBins, &d.MACs)
			c.u64(&d.Digest)
			slice(c, &d.KalmanX, (*codec).f64)
			slice(c, &d.KalmanP, (*codec).f64)
			slice(c, &d.WienerLag, (*codec).f64)
		})
	}

	// Drift-process and adapt-stage state (v3).
	if c.v >= 3 {
		optional(c, &st.Drift, func(d *drift.ProcessState) {
			c.rng(&d.RNG)
			c.n64(&d.Tick)
			slice(c, &d.Theta, (*codec).f64)
			slice(c, &d.RateScale, (*codec).f64)
			slice(c, &d.AmpGain, (*codec).f64)
			slice(c, &d.Alive, (*codec).boolean)
			c.i64s(&d.Epochs, &d.Turnovers, &d.Lost)
		})
		optional(c, &st.Adapt, func(a *fleet.AdaptState) {
			m := &a.Meter
			slice(c, &m.RefSum, (*codec).f64)
			slice(c, &m.RefSqSum, (*codec).f64)
			c.n32(&m.RefCount)
			slice(c, &m.Ring, (*codec).f64)
			c.n32(&m.RingHead)
			c.n32(&m.RingFill)
			optional(c, &a.Recal, func(rc *decode.RecalState) {
				slice(c, &rc.Obs, (*codec).f64)
				slice(c, &rc.Intent, (*codec).f64)
				c.n32(&rc.Count)
				c.n32(&rc.Head)
				c.n32(&rc.SinceRefit)
				c.i64(&rc.Refits)
			})
			optional(c, &a.Model, func(ms *decode.ModelState) {
				slice(c, &ms.H, (*codec).f64)
				slice(c, &ms.Q, (*codec).f64)
				slice(c, &ms.W, (*codec).f64)
				slice(c, &ms.K, (*codec).f64)
			})
			c.rng(&a.RNG)
			c.f64(&a.SqErr)
			c.i64(&a.ErrBins)
			c.f64(&a.LastKL)
			c.boolean(&a.KLValid)
		})
	}
}

// Encode serializes the checkpoint.
func Encode(cp Checkpoint) []byte {
	c := &codec{b: make([]byte, 0, 512), v: Version}
	c.b = append(c.b, Magic[:]...)
	c.u16(&c.v)
	c.checkpoint(&cp)
	return c.b
}

// Decode parses a checkpoint blob. Malformed input returns an error and
// the zero Checkpoint — never a panic, never an unbounded allocation.
func Decode(buf []byte) (Checkpoint, error) {
	c := &codec{b: buf, rd: true}
	if m := c.take(4); c.err == nil && [4]byte(m) != Magic {
		c.err = ErrBadMagic
	}
	if c.u16(&c.v); c.err == nil && (c.v < VersionV1 || c.v > Version) {
		c.err = fmt.Errorf("%w: %d (this build supports %d..%d)", ErrBadVersion, c.v, VersionV1, Version)
	}
	if c.err != nil {
		return Checkpoint{}, c.err
	}
	var cp Checkpoint
	if c.checkpoint(&cp); c.err != nil {
		return Checkpoint{}, c.err
	}
	if len(c.b) != 0 {
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
