package checkpoint

// The checkpoint codec as it stood before Encode and Decode became one
// field walk: two mirrored bodies over their own writer/reader primitives,
// kept verbatim (renamed ref*) as the oracle the walk is checked against.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mindful/internal/decode"
	"mindful/internal/detrand"
	"mindful/internal/drift"
	"mindful/internal/fault"
	"mindful/internal/fleet"
)

// refWriter appends fixed-width fields.
type refWriter struct{ b []byte }

func (w *refWriter) u8(v uint8)    { w.b = append(w.b, v) }
func (w *refWriter) u16(v uint16)  { w.b = binary.BigEndian.AppendUint16(w.b, v) }
func (w *refWriter) u32(v uint32)  { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *refWriter) u64(v uint64)  { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *refWriter) i64(v int64)   { w.u64(uint64(v)) }
func (w *refWriter) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *refWriter) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *refWriter) rng(st detrand.State) {
	w.i64(st.Seed)
	w.u64(st.Draws)
}

func (w *refWriter) f64s(v []float64) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.f64(x)
	}
}

func (w *refWriter) bools(v []bool) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.boolean(x)
	}
}

// refReader consumes fixed-width fields, remembering the first error so
// call sites stay linear.
type refReader struct {
	b   []byte
	err error
}

func (r *refReader) take(n int) []byte {
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

func (r *refReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *refReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *refReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *refReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *refReader) i64() int64 { return int64(r.u64()) }

// f64 rejects non-finite values: no pipeline component can snapshot a
// NaN or Inf (decoders error on non-finite input before it reaches
// state), so any such bit pattern is a forged blob — and NaN would
// silently break the decode/encode round-trip invariant (NaN ≠ NaN).
func (r *refReader) f64() float64 {
	v := math.Float64frombits(r.u64())
	if r.err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		r.err = ErrNonFinite
		return 0
	}
	return v
}

func (r *refReader) boolean() bool {
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
func (r *refReader) length() int {
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

func (r *refReader) rng() detrand.State {
	return detrand.State{Seed: r.i64(), Draws: r.u64()}
}

func (r *refReader) f64s() []float64 {
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

func (r *refReader) bools() []bool {
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

// refEncode serializes the checkpoint.
func refEncode(cp Checkpoint) []byte {
	w := &refWriter{b: make([]byte, 0, 512)}
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

// refDecode parses a checkpoint blob. Malformed input returns an error —
// never a panic, never an unbounded allocation.
func refDecode(buf []byte) (Checkpoint, error) {
	var cp Checkpoint
	r := &refReader{b: buf}
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

// oracleBlobs are the differential test's starting points: the v1, v2 and
// v3 goldens plus fresh snapshots of every optional-state shape — clean,
// full stack, each in-loop decoder and each adaptive decoder — at the
// first tick, mid-run and after a refit.
func oracleBlobs(tb testing.TB) [][]byte {
	tb.Helper()
	var blobs [][]byte
	for _, name := range []string{"v1_golden.ckpt", "v2_golden.ckpt", "v3_golden.ckpt"} {
		blobs = append(blobs, mustReadTestdata(tb, name))
	}
	cfgs := []SessionConfig{cleanConfig(), fullConfig()}
	for _, dec := range []string{"kalman", "wiener", "dnn", "fixed"} {
		cfg := fullConfig()
		cfg.Decoder = dec
		cfgs = append(cfgs, cfg)
	}
	for _, dec := range adaptiveDecoders {
		cfgs = append(cfgs, adaptiveSessionConfig(dec))
	}
	for i, cfg := range cfgs {
		p, err := NewPipeline(cfg, 0)
		if err != nil {
			tb.Fatal(err)
		}
		// Spread the snapshot ticks over the sessions: 0, 5 and 24.
		for n := 0; n < []int{0, 5, 24}[i%3]; n++ {
			if err := p.Step(); err != nil {
				tb.Fatal(err)
			}
		}
		blob, err := Snapshot(cfg, p)
		p.Close()
		if err != nil {
			tb.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	return blobs
}

// checkAgainstOracle decodes data with the walk and with the reference
// codec: both must fail with the same error text, or both succeed with
// deep-equal checkpoints that re-encode to the same bytes. The walk's
// failures must also return the zero Checkpoint.
func checkAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	got, err := Decode(data)
	want, refErr := refDecode(data)
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("%d-byte blob: Decode error %v, reference %v", len(data), err, refErr)
	}
	if err != nil {
		if !reflect.DeepEqual(got, Checkpoint{}) {
			t.Fatalf("%d-byte blob: Decode returned a non-zero checkpoint with %v", len(data), err)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%d-byte blob: Decode\n%+v\nreference %+v", len(data), got, want)
	}
	if enc, ref := Encode(got), refEncode(got); !bytes.Equal(enc, ref) {
		t.Fatalf("%d-byte blob: Encode gives %d bytes, reference %d (or different bytes)", len(data), len(enc), len(ref))
	}
}

// TestCodecMatchesOracle: the single field walk decodes and encodes
// exactly as the mirrored reference pair — on every blob shape, every
// truncation of it and a few hundred random 1–3-bit flips of it — and
// encodes byte-identically even checkpoints no decode can produce.
func TestCodecMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, blob := range oracleBlobs(t) {
		for n := 0; n <= len(blob); n++ {
			checkAgainstOracle(t, blob[:n])
		}
		checkAgainstOracle(t, append(append([]byte(nil), blob...), 0))
		mut := make([]byte, len(blob))
		for k := 0; k < 300; k++ {
			copy(mut, blob)
			for f := rng.Intn(3); f >= 0; f-- {
				bit := rng.Intn(8 * len(mut))
				mut[bit/8] ^= 1 << (bit % 8)
			}
			checkAgainstOracle(t, mut)
		}
	}

	// Every value of the decoder-kind byte, the one field whose range
	// depends on the version: v2 blobs cannot name the fixed-gain
	// decoder. The byte sits at the same offset in both goldens (v3 only
	// appends), found as the first byte a different decoder name moves.
	v3 := mustReadTestdata(t, "v3_golden.ckpt")
	cp := mustDecode(t, v3)
	cp.Config.Decoder = "wiener"
	kindAt := 0
	for alt := Encode(cp); v3[kindAt] == alt[kindAt]; kindAt++ {
	}
	for _, golden := range []string{"v2_golden.ckpt", "v3_golden.ckpt"} {
		blob := mustReadTestdata(t, golden)
		for k := 0; k < 256; k++ {
			blob[kindAt] = byte(k)
			checkAgainstOracle(t, blob)
		}
	}

	// Values outside what the wire carries (negative or wide ints, an
	// unknown decoder name, empty non-nil slices) must truncate the same
	// way, and encoding must leave its input untouched.
	odd := func() Checkpoint {
		cfg := adaptiveSessionConfig("kalman")
		cfg.Channels, cfg.Ticks, cfg.SampleBits, cfg.DecodeBin = -1, -5, 300, 1<<33
		cfg.Decoder = "transformer"
		cfg.Faults.BrownoutTicks = -2
		st := fleet.PipelineState{Tick: -1, PktSeq: math.MaxUint32}
		st.Gen.PendHead = []int{-1, 1 << 40}
		st.ElecGains = []float64{}
		st.Decode = &fleet.DecodeState{BinSums: []float64{}, BinCount: -3}
		st.Drift = &drift.ProcessState{Alive: []bool{true, false}}
		st.Adapt = &fleet.AdaptState{Recal: &decode.RecalState{Refits: -1}}
		return Checkpoint{Config: cfg, State: st}
	}
	cp = odd()
	if enc, ref := Encode(cp), refEncode(odd()); !bytes.Equal(enc, ref) {
		t.Fatal("Encode of out-of-range values differs from the reference")
	}
	if !reflect.DeepEqual(cp, odd()) {
		t.Fatal("Encode modified its input")
	}
}

func mustReadTestdata(tb testing.TB, name string) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func mustDecode(t *testing.T, blob []byte) Checkpoint {
	t.Helper()
	cp, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// FuzzCodecMatchesOracle: on arbitrary bytes the walk and the reference
// codec agree on the error text, the decoded checkpoint and its encoding.
func FuzzCodecMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add(Magic[:])
	for _, blob := range oracleBlobs(f) {
		f.Add(blob)
	}
	f.Fuzz(checkAgainstOracle)
}

// Package-level sinks keep BenchmarkCodec's results live.
var (
	codecSink     Checkpoint
	codecBlobSink []byte
)

// BenchmarkCodec times the walk against the reference codec on a v3
// adaptive blob (every section present).
func BenchmarkCodec(b *testing.B) {
	blob := mustReadTestdata(b, "v3_golden.ckpt")
	cp, err := Decode(blob)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		encode func(Checkpoint) []byte
		decode func([]byte) (Checkpoint, error)
	}{{"walk", Encode, Decode}, {"reference", refEncode, refDecode}} {
		b.Run(c.name+"/Encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				codecBlobSink = c.encode(cp)
			}
		})
		b.Run(c.name+"/Decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if codecSink, err = c.decode(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
