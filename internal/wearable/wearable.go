// Package wearable is the receiving half of Fig. 1: the external SoC that
// collects the implant's uplink frames. It validates framing, tracks
// sequence continuity and frame error rates, and reassembles per-channel
// sample streams. Instead of silently skipping bad frames it degrades
// gracefully: sequence gaps can be concealed (hold-last or linear
// interpolation, with the synthesized frames flagged so decoders can
// discount them), losses are accounted per cause, and stale or duplicate
// deliveries — a fact of life once the link layer retransmits — are
// recognized rather than miscounted as huge gaps. A lossy-link injector
// lets the whole implant → wearable path be exercised under realistic bit
// error rates.
package wearable

import (
	"errors"
	"fmt"
	"math"
	"time"

	"mindful/internal/comm"
	"mindful/internal/detrand"
	"mindful/internal/obs"
)

// Concealment selects the receiver's gap-concealment strategy.
type Concealment int

// The strategies. Concealed frames are flagged comm.FlagConcealed and
// counted separately so downstream consumers can discount them.
const (
	// ConcealNone records nothing for lost frames (the pre-recovery
	// behavior: downstream streams simply skip).
	ConcealNone Concealment = iota
	// ConcealHold repeats the last accepted sample vector.
	ConcealHold
	// ConcealInterp interpolates linearly between the last accepted
	// vector and the frame that revealed the gap.
	ConcealInterp
)

// String names the strategy.
func (c Concealment) String() string {
	switch c {
	case ConcealNone:
		return "none"
	case ConcealHold:
		return "hold"
	case ConcealInterp:
		return "interp"
	default:
		return "unknown"
	}
}

// DefaultMaxConcealGap bounds how many missing frames one gap may
// synthesize: past this the signal is stale enough that concealment does
// the decoder more harm than good (and a corrupted sequence number must
// not trigger an unbounded fill).
const DefaultMaxConcealGap = 64

// ErrStaleFrame reports a frame whose sequence number lies behind the
// receiver's cursor — a duplicate or late retransmission. The frame is
// counted but not recorded.
var ErrStaleFrame = errors.New("wearable: stale or duplicate frame")

// Receiver consumes uplink frames and accounts for link quality.
type Receiver struct {
	// KeepSamples bounds the per-channel history retained (0 = none).
	KeepSamples int
	// Concealment selects how sequence gaps are filled.
	Concealment Concealment
	// MaxConcealGap caps the synthesized frames per gap (0 = the
	// DefaultMaxConcealGap).
	MaxConcealGap int
	// OnConcealed, when set, receives every synthesized frame (flags
	// include comm.FlagConcealed). The frame's sample slice is reused by
	// the next concealment, so sinks must copy what they keep.
	OnConcealed func(comm.Frame)

	started     bool
	nextSeq     uint32
	accepted    int64
	corrupt     int64
	lost        int64
	stale       int64
	concealed   int64
	concealedSm int64
	lastSamples []uint16
	concealBuf  []uint16
	scratch     []uint16
	history     [][]uint16
	o           receiverObs
}

// receiverObs holds the receiver's pre-resolved metric handles; the zero
// value short-circuits all hooks.
type receiverObs struct {
	attached  bool
	accepted  *obs.Counter
	corrupt   *obs.Counter
	lostSeq   *obs.Counter
	stale     *obs.Counter
	concealed *obs.Counter
	latency   *obs.Histogram
}

// SetObserver wires the receiver to an observability sink: frame
// accepted/corrupt counters, lost-sequence, stale and concealed-frame
// counters and a per-frame processing-latency histogram. Pass nil to
// detach.
func (r *Receiver) SetObserver(o *obs.Observer) {
	if o == nil {
		r.o = receiverObs{}
		return
	}
	m := o.Metrics
	r.o = receiverObs{
		attached:  true,
		accepted:  m.Counter("wearable_frames_accepted_total"),
		corrupt:   m.Counter("wearable_frames_corrupt_total"),
		lostSeq:   m.Counter("wearable_frames_lost_total"),
		stale:     m.Counter("wearable_frames_stale_total"),
		concealed: m.Counter("wearable_frames_concealed_total"),
		latency:   m.Histogram("wearable_frame_latency_seconds", obs.ExpBuckets(1e-7, 4, 12)),
	}
	m.Help("wearable_frames_accepted_total", "Frames accepted by the receiver.")
	m.Help("wearable_frames_corrupt_total", "Frames rejected as corrupt.")
	m.Help("wearable_frames_lost_total", "Frames inferred lost from sequence gaps.")
	m.Help("wearable_frames_stale_total", "Stale or duplicate frames discarded.")
	m.Help("wearable_frames_concealed_total", "Gap frames synthesized by concealment.")
	m.Help("wearable_frame_latency_seconds", "Per-frame decode+record latency.")
}

// NewReceiver returns a receiver retaining up to keepSamples per channel.
func NewReceiver(keepSamples int) (*Receiver, error) {
	if keepSamples < 0 {
		return nil, errors.New("wearable: negative history length")
	}
	return &Receiver{KeepSamples: keepSamples}, nil
}

// ErrFrameRejected reports a frame that failed decode validation
// (framing or CRC). It is returned as is, never wrapped, so a corrupt
// frame costs no allocation; comm.AppendDecode reports the cause when it
// matters.
var ErrFrameRejected = errors.New("wearable: frame rejected")

// Receive consumes one (possibly corrupted) frame. It returns the decoded
// frame when accepted; rejected frames are counted per cause and return
// ErrFrameRejected, or ErrStaleFrame (with the frame) for duplicates and
// late retransmissions. The frame's samples are decoded into
// receiver-owned scratch and stay valid only until the next Receive:
// callers that keep them must copy. History, concealment and OnConcealed
// copy synchronously, so a steady-state call allocates nothing.
func (r *Receiver) Receive(buf []byte) (comm.Frame, error) {
	var start time.Time
	if r.o.attached {
		start = time.Now()
	}
	f, err := comm.AppendDecode(r.scratch[:0], buf)
	if err != nil {
		r.corrupt++
		r.o.corrupt.Inc()
		return comm.Frame{}, ErrFrameRejected
	}
	r.scratch = f.Samples
	if r.started && f.Seq != r.nextSeq {
		// Signed distance from the cursor: forward is a gap, backward a
		// stale delivery (duplicate or late retransmission).
		delta := int32(f.Seq - r.nextSeq)
		if delta < 0 {
			r.stale++
			r.o.stale.Inc()
			return f, ErrStaleFrame
		}
		gap := int64(delta)
		r.lost += gap
		r.o.lostSeq.Add(gap)
		r.conceal(gap, f)
	}
	r.started = true
	r.nextSeq = f.Seq + 1
	r.accepted++
	r.record(f.Samples)
	r.remember(f.Samples)
	if r.o.attached {
		r.o.accepted.Inc()
		r.o.latency.Observe(time.Since(start).Seconds())
	}
	return f, nil
}

// remember keeps a private copy of the latest accepted sample vector for
// concealment (the caller's frame buffer is recycled between ticks).
func (r *Receiver) remember(samples []uint16) {
	if r.Concealment == ConcealNone {
		return
	}
	r.lastSamples = append(r.lastSamples[:0], samples...)
}

// conceal synthesizes up to MaxConcealGap frames for a gap revealed by
// the arrival of frame f, records them, and hands each to OnConcealed.
func (r *Receiver) conceal(gap int64, f comm.Frame) {
	if r.Concealment == ConcealNone || len(r.lastSamples) == 0 || len(r.lastSamples) != len(f.Samples) {
		return
	}
	limit := int64(r.MaxConcealGap)
	if limit <= 0 {
		limit = DefaultMaxConcealGap
	}
	n := gap
	if n > limit {
		n = limit
	}
	if cap(r.concealBuf) < len(f.Samples) {
		r.concealBuf = make([]uint16, len(f.Samples))
	}
	synth := r.concealBuf[:len(f.Samples)]
	for k := int64(1); k <= n; k++ {
		for c := range synth {
			last := int64(r.lastSamples[c])
			switch r.Concealment {
			case ConcealHold:
				synth[c] = uint16(last)
			case ConcealInterp:
				cur := int64(f.Samples[c])
				synth[c] = uint16(last + (cur-last)*k/(gap+1))
			}
		}
		r.record(synth)
		r.concealed++
		r.concealedSm += int64(len(synth))
		r.o.concealed.Inc()
		if r.OnConcealed != nil {
			r.OnConcealed(comm.Frame{
				Seq:        f.Seq - uint32(gap) + uint32(k) - 1,
				SampleBits: f.SampleBits,
				Samples:    synth,
				Flags:      f.Flags | comm.FlagConcealed,
			})
		}
	}
}

func (r *Receiver) record(samples []uint16) {
	if r.KeepSamples == 0 {
		return
	}
	if len(r.history) < len(samples) {
		grown := make([][]uint16, len(samples))
		copy(grown, r.history)
		r.history = grown
	}
	for c, s := range samples {
		h := append(r.history[c], s)
		if len(h) > r.KeepSamples {
			h = h[len(h)-r.KeepSamples:]
		}
		r.history[c] = h
	}
}

// History returns the retained samples of one channel (nil if none).
func (r *Receiver) History(channel int) []uint16 {
	if channel < 0 || channel >= len(r.history) {
		return nil
	}
	return r.history[channel]
}

// Stats summarizes link quality at the receiver, per loss cause.
type Stats struct {
	// Accepted counts clean frames; Corrupted CRC/framing rejections;
	// LostSeq frames inferred missing from sequence gaps; Stale
	// duplicate or late deliveries discarded.
	Accepted  int64
	Corrupted int64
	LostSeq   int64
	Stale     int64
	// Concealed counts gap frames synthesized by concealment, and
	// ConcealedSamples the samples inside them.
	Concealed        int64
	ConcealedSamples int64
}

// FrameErrorRate returns corrupted / (accepted + corrupted), 0 when no
// frame has arrived.
func (s Stats) FrameErrorRate() float64 {
	total := s.Accepted + s.Corrupted
	if total == 0 {
		return 0
	}
	return float64(s.Corrupted) / float64(total)
}

// DeliveryRate returns the fraction of expected frames that arrived
// clean: accepted / (accepted + corrupted + lost), 0 before any traffic.
func (s Stats) DeliveryRate() float64 {
	total := s.Accepted + s.Corrupted + s.LostSeq
	if total == 0 {
		return 0
	}
	return float64(s.Accepted) / float64(total)
}

// ConcealedFraction returns the share of recorded frames that were
// synthesized rather than received: concealed / (accepted + concealed),
// 0 when nothing was recorded.
func (s Stats) ConcealedFraction() float64 {
	total := s.Accepted + s.Concealed
	if total == 0 {
		return 0
	}
	return float64(s.Concealed) / float64(total)
}

// ReceiverState is a receiver's serializable mid-stream state: the
// sequence cursor, per-cause accounting and the last accepted sample
// vector (which concealment interpolates from). Retained history is
// deliberately excluded — checkpointable pipelines run with
// KeepSamples = 0, and history is a display convenience, not part of
// the deterministic dataflow.
type ReceiverState struct {
	Started     bool
	NextSeq     uint32
	Stats       Stats
	LastSamples []uint16
}

// Snapshot captures the receiver's mid-stream state.
func (r *Receiver) Snapshot() ReceiverState {
	return ReceiverState{
		Started:     r.started,
		NextSeq:     r.nextSeq,
		Stats:       r.Stats(),
		LastSamples: append([]uint16(nil), r.lastSamples...),
	}
}

// RestoreState overwrites the receiver's mutable state so it continues
// exactly where the snapshotted one stopped. Configuration fields
// (KeepSamples, Concealment, MaxConcealGap, OnConcealed) are left as the
// caller set them.
func (r *Receiver) RestoreState(st ReceiverState) error {
	if !st.Started && (st.NextSeq != 0 || len(st.LastSamples) != 0) {
		return errors.New("wearable: unstarted receiver state carries a cursor")
	}
	r.started = st.Started
	r.nextSeq = st.NextSeq
	r.accepted = st.Stats.Accepted
	r.corrupt = st.Stats.Corrupted
	r.lost = st.Stats.LostSeq
	r.stale = st.Stats.Stale
	r.concealed = st.Stats.Concealed
	r.concealedSm = st.Stats.ConcealedSamples
	r.lastSamples = append(r.lastSamples[:0], st.LastSamples...)
	return nil
}

// Stats returns the current accounting.
func (r *Receiver) Stats() Stats {
	return Stats{
		Accepted:         r.accepted,
		Corrupted:        r.corrupt,
		LostSeq:          r.lost,
		Stale:            r.stale,
		Concealed:        r.concealed,
		ConcealedSamples: r.concealedSm,
	}
}

// LossyLink flips each transported bit independently with probability BER
// — the i.i.d. failure-injection model for the implant → wearable path
// (see fault.BurstLink for the two-state burst generalization).
type LossyLink struct {
	BER float64
	rng *detrand.Rand

	frames   *obs.Counter
	bitFlips *obs.Counter
}

// SetObserver wires the link to an observability sink: transported-frame
// and injected-bit-flip counters. Pass nil to detach.
func (l *LossyLink) SetObserver(o *obs.Observer) {
	if o == nil {
		l.frames, l.bitFlips = nil, nil
		return
	}
	l.frames = o.Metrics.Counter("link_frames_transported_total")
	l.bitFlips = o.Metrics.Counter("link_bit_flips_total")
	o.Metrics.Help("link_frames_transported_total", "Frames passed through the lossy link.")
	o.Metrics.Help("link_bit_flips_total", "Bit errors injected by the lossy link.")
}

// NewLossyLink returns a seeded link at the given bit error rate.
func NewLossyLink(ber float64, seed int64) (*LossyLink, error) {
	if ber < 0 || ber >= 1 {
		return nil, fmt.Errorf("wearable: BER %g outside [0, 1)", ber)
	}
	return &LossyLink{BER: ber, rng: detrand.New(seed)}, nil
}

// Transport returns a possibly-corrupted copy of the frame. The caller's
// buffer is never aliased or modified — corruption is applied only to the
// copy — so pooled sender frames stay pristine for retransmission
// (TestLossyLinkNeverMutatesInput pins this contract).
func (l *LossyLink) Transport(buf []byte) []byte {
	return l.AppendTransport(nil, buf)
}

// AppendTransport appends the transported (possibly corrupted) frame to
// dst and returns the extended slice, preserving Transport's contract
// that the input is never touched. Passing a recycled dst[:0] makes the
// path allocation-free.
func (l *LossyLink) AppendTransport(dst, buf []byte) []byte {
	l.frames.Inc()
	base := len(dst)
	dst = append(dst, buf...)
	if l.BER == 0 {
		return dst
	}
	// Geometric skipping between flips: efficient at low BER.
	pos := 0
	nBits := len(buf) * 8
	for {
		skip := int(math.Floor(math.Log(1-l.rng.Float64()) / math.Log(1-l.BER)))
		pos += skip
		if pos >= nBits {
			return dst
		}
		dst[base+pos/8] ^= 1 << (7 - pos%8)
		l.bitFlips.Inc()
		pos++
	}
}

// ExpectedFrameErrorRate returns the analytic FER for a frame of the given
// byte length at this BER: 1 − (1−BER)^bits.
func (l *LossyLink) ExpectedFrameErrorRate(frameBytes int) float64 {
	return 1 - math.Pow(1-l.BER, float64(frameBytes*8))
}
