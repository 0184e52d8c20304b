package fleet

import (
	"errors"
	"fmt"
	"math"
	mathbits "math/bits"

	"mindful/internal/comm"
	"mindful/internal/drift"
	"mindful/internal/fault"
	"mindful/internal/neural"
	"mindful/internal/wearable"
)

// Tick is the dataflow record one pipeline tick threads through the
// stage graph. Each stage reads the fields upstream stages produced and
// writes its own; the record is reset at the top of every tick and the
// slices inside it are stage-owned pooled buffers, recycled on the next
// tick — sinks must copy what they keep.
type Tick struct {
	// N is the tick number (0-based).
	N int
	// Res is the pipeline's running counters; stages account into it.
	Res *ImplantResult
	// Blanked reports a transmitter brownout: the frame was built (the
	// sequence counter advanced) but the radio is dark.
	Blanked bool
	// Frame is the encoded frame the source stage produced this tick.
	Frame []byte
	// Delivered is the byte stream that arrived at the wearable (possibly
	// corrupt), or nil when the link swallowed the frame whole.
	Delivered []byte
	// RxFrame and RxOK are the receiver stage's outcome: the decoded
	// frame when the wearable accepted it in order.
	RxFrame comm.Frame
	RxOK    bool
}

// Stage is one segment of an implant pipeline's dataflow. Stages are
// stepped in graph order once per tick, sharing a Tick record; each owns
// its components, its slice of the serializable PipelineState, and its
// pooled buffers. The builder in NewPipeline assembles the default graph
// — source → transport → receiver → (decode) — preserving the exact
// random draw order of the original hardwired pipeline, which is what
// keeps the determinism digests byte-identical across the refactor.
type Stage interface {
	// Name identifies the stage in the pipeline's stage listing.
	Name() string
	// Step advances the stage one tick, reading and writing the shared
	// Tick record.
	Step(tk *Tick) error
	// Snapshot writes the stage's serializable state into st.
	Snapshot(st *PipelineState)
	// Restore overwrites the stage's state from a snapshot taken under
	// the same config, validating shape and seed lineage.
	Restore(cfg Config, st *PipelineState) error
	// Close returns the stage's pooled buffers; the stage must not be
	// stepped afterwards.
	Close()
}

// sourceStage is the implant side: synthetic cortex → electrode faults →
// ADC → frame encoder, with the brownout process gating the radio.
type sourceStage struct {
	phase float64
	gen   *neural.Generator
	adc   neural.ADC
	pkt   *comm.Packetizer
	elec  *fault.ElectrodeBank
	brown *fault.Brownout
	drift *drift.Process

	framePtr  *[]byte
	sampleBuf []float64
	codeBuf   []uint16
}

func (s *sourceStage) Name() string { return "source" }

func (s *sourceStage) Step(tk *Tick) error {
	// Drift mutates the cortex before anything observes it this tick;
	// nil-safe, and tick 0 applies nothing (day 0 is pristine).
	if err := s.drift.Tick(s.gen); err != nil {
		return err
	}
	s.gen.SetIntent(intentAt(s.phase, tk.N))
	tk.Blanked = s.brown.Tick()
	s.sampleBuf = s.gen.NextInto(s.sampleBuf)
	s.elec.Apply(s.sampleBuf) // nil-safe: no-op without electrode faults
	s.codeBuf = s.adc.AppendQuantize(s.codeBuf[:0], s.sampleBuf)
	frame, err := s.pkt.AppendEncode((*s.framePtr)[:0], s.codeBuf)
	if err != nil {
		return err
	}
	*s.framePtr = frame
	tk.Frame = frame
	if tk.Blanked {
		// Brownout: the wearable will see a sequence gap and conceal it
		// if configured.
		tk.Res.Blanked++
		return nil
	}
	tk.Res.Frames++
	return nil
}

func (s *sourceStage) Snapshot(st *PipelineState) {
	st.Gen = s.gen.Snapshot()
	st.PktSeq = s.pkt.Seq()
	if s.brown != nil {
		bs := s.brown.Snapshot()
		st.Brown = &bs
	}
	if s.elec != nil {
		st.ElecGains = s.elec.Gains()
	}
	if s.drift != nil {
		ds := s.drift.Snapshot()
		st.Drift = &ds
	}
}

func (s *sourceStage) Restore(cfg Config, st *PipelineState) error {
	gen, err := neural.RestoreGenerator(neuralConfig(cfg, st.Counters.Index), st.Gen)
	if err != nil {
		return err
	}
	s.gen = gen
	s.pkt.SetSeq(st.PktSeq)
	if (s.brown != nil) != (st.Brown != nil) {
		return errors.New("fleet: brownout state does not match config")
	}
	if s.brown != nil {
		if s.brown, err = fault.RestoreBrownout(*cfg.Faults, *st.Brown); err != nil {
			return err
		}
	}
	if s.elec != nil || len(st.ElecGains) > 0 {
		if s.elec == nil {
			return errors.New("fleet: electrode gains do not match config")
		}
		if err := s.elec.RestoreGains(st.ElecGains); err != nil {
			return err
		}
	}
	if (s.drift != nil) != (st.Drift != nil) {
		return errors.New("fleet: drift state does not match config")
	}
	if s.drift != nil {
		// Restore after the generator so the drifted unit state lands on
		// the restored cortex.
		if s.drift, err = drift.RestoreProcess(*cfg.Drift, s.gen, *st.Drift); err != nil {
			return err
		}
	}
	return nil
}

func (s *sourceStage) Close() {
	comm.PutByteBuf(s.framePtr)
}

// transportStage is the uplink: frame bits → (FEC) → symbols → AWGN →
// demodulation → (FEC decode) → bytes → (burst link), with the ARQ loop
// retrying failed frames inside the tick. When the config allows it —
// square QAM with k ∈ {2, 4, 8}, no FEC, no ARQ — the frame goes over
// the air through the packed byte modem instead of the bit-level one:
// the same symbols, noise and hard decisions, without the
// one-byte-per-bit stream.
type transportStage struct {
	modem   comm.Modem
	pm      *comm.PackedModem // nil unless the packed path applies
	channel *comm.AWGNChannel
	fec     *comm.FEC
	arq     *comm.ARQ
	link    *fault.BurstLink
	k       int // bits per symbol

	bitPtr, rxBitPtr *[]byte        // nil on the packed path
	symPtr           *[]comm.Symbol // nil on the packed path
	codedPtr, decPtr *[]byte
	linkPtr          *[]byte
	rxFramePtr       *[]byte
	finalBuf         []byte
	checkBuf         []uint16 // ARQ's frame-validity decode scratch
}

func (t *transportStage) Name() string { return "transport" }

// attempt runs one full transmission of the tick's frame. It returns
// the bytes that arrived at the wearable, or nil when the burst link
// swallowed the frame whole. With every fault and coding stage disabled
// it performs exactly the draws, in exactly the order, of the original
// fault-free pipeline — the clean-path byte-identity invariant the
// determinism wall pins.
func (t *transportStage) attempt(tk *Tick) ([]byte, error) {
	var rxFrame []byte
	if t.pm != nil {
		rxFrame = t.airPacked(tk)
	} else {
		var err error
		if rxFrame, err = t.airBits(tk); err != nil {
			return nil, err
		}
	}
	if t.link != nil {
		out := t.link.AppendTransport((*t.linkPtr)[:0], rxFrame)
		if out == nil {
			tk.Res.LinkDropped++
			return nil, nil
		}
		*t.linkPtr = out
		rxFrame = out
	}
	return rxFrame, nil
}

// packedChunk is the symbols airPacked keeps in flight at once, on the
// stack: modulation, noise and hard decisions run chunk by chunk, in
// symbol order, so the channel draws exactly as for the whole frame.
const packedChunk = 64

// airPacked sends the frame's bytes through the packed modem. A frame
// maps to a whole number of symbols with no pad bits, so the
// XOR+popcount error count equals airBits' per-bit comparison exactly.
func (t *transportStage) airPacked(tk *Tick) []byte {
	var buf [packedChunk]comm.Symbol
	frame := tk.Frame
	step := packedChunk / t.pm.SymbolsPerByte() // frame bytes per chunk
	rxFrame := (*t.rxFramePtr)[:0]
	for off := 0; off < len(frame); off += step {
		syms := t.pm.AppendModulateBytes(buf[:0], frame[off:min(off+step, len(frame))])
		t.channel.TransmitInPlace(syms)
		rxFrame = t.pm.AppendDemodulateBytes(rxFrame, syms)
	}
	*t.rxFramePtr = rxFrame
	for i := range frame {
		tk.Res.BitErrors += int64(mathbits.OnesCount8(frame[i] ^ rxFrame[i]))
	}
	tk.Res.BitsSent += int64(len(frame) * 8)
	return rxFrame
}

// airBits sends the frame through the general bit-level modem, with
// FEC when configured.
func (t *transportStage) airBits(tk *Tick) ([]byte, error) {
	frame := tk.Frame
	raw := comm.AppendBytesAsBits((*t.bitPtr)[:0], frame)
	*t.bitPtr = raw
	tx := raw
	codedLen := len(raw)
	if t.fec != nil {
		coded := t.fec.AppendEncode((*t.codedPtr)[:0], raw)
		tx = coded
		codedLen = len(coded)
	}
	// Pad to a symbol boundary; the pad is dropped after demodulation.
	for len(tx)%t.k != 0 {
		tx = append(tx, 0)
	}
	if t.fec != nil {
		*t.codedPtr = tx
	} else {
		*t.bitPtr = tx
	}
	syms, merr := t.modem.AppendModulate((*t.symPtr)[:0], tx)
	if merr != nil {
		return nil, merr
	}
	*t.symPtr = syms
	t.channel.TransmitInPlace(syms)
	rxBits := t.modem.AppendDemodulate((*t.rxBitPtr)[:0], syms)
	*t.rxBitPtr = rxBits
	for i := range tx {
		if tx[i] != rxBits[i] {
			tk.Res.BitErrors++
		}
	}
	tk.Res.BitsSent += int64(len(tx))

	data := rxBits[:codedLen]
	if t.fec != nil {
		dec, fixed, derr := t.fec.AppendDecode((*t.decPtr)[:0], data)
		if derr != nil {
			return nil, derr
		}
		*t.decPtr = dec
		tk.Res.FECCorrected += int64(fixed)
		data = dec
	}
	rxFrame := comm.AppendBitsAsBytes((*t.rxFramePtr)[:0], data[:len(frame)*8])
	*t.rxFramePtr = rxFrame
	return rxFrame, nil
}

func (t *transportStage) Step(tk *Tick) error {
	if tk.Blanked {
		return nil
	}
	if t.arq == nil {
		got, err := t.attempt(tk)
		if err != nil {
			return err
		}
		tk.Delivered = got
		return nil
	}
	// ARQ: retry until the frame decodes cleanly or the budget runs out.
	// The wearable keeps the last bytes it heard, so an exhausted budget
	// still surfaces the corrupt frame (counted as such) rather than
	// silently vanishing.
	air := len(tk.Frame) * 8
	if t.fec != nil {
		air = t.fec.CodedBits(air)
	}
	if rem := air % t.k; rem != 0 {
		air += t.k - rem
	}
	haveFinal := false
	var attemptErr error
	t.arq.Send(tk.Frame, air, func([]byte) bool {
		got, aerr := t.attempt(tk)
		if aerr != nil {
			attemptErr = aerr
			return false
		}
		if got == nil {
			return false
		}
		t.finalBuf = append(t.finalBuf[:0], got...)
		haveFinal = true
		fr, derr := comm.AppendDecode(t.checkBuf[:0], got)
		if derr != nil {
			return false
		}
		t.checkBuf = fr.Samples
		return true
	})
	if attemptErr != nil {
		return attemptErr
	}
	if haveFinal {
		tk.Delivered = t.finalBuf
	}
	return nil
}

func (t *transportStage) Snapshot(st *PipelineState) {
	st.Channel = t.channel.Snapshot()
	if t.arq != nil {
		st.ARQ = t.arq.Stats()
	}
	if t.fec != nil {
		st.FECCorrected = t.fec.Corrected()
	}
	if t.link != nil {
		ls := t.link.Snapshot()
		st.Link = &ls
	}
}

func (t *transportStage) Restore(cfg Config, st *PipelineState) error {
	if want := DeriveSeed(cfg.Seed, uint64(st.Counters.Index), StreamChannel); st.Channel.RNG.Seed != want {
		return fmt.Errorf("fleet: channel RNG seed %d does not derive from config seed %d", st.Channel.RNG.Seed, cfg.Seed)
	}
	t.channel = comm.RestoreAWGNChannel(math.Pow(10, cfg.EbN0dB/10), st.Channel)
	if t.arq == nil && st.ARQ != (comm.ARQStats{}) {
		return errors.New("fleet: checkpoint carries ARQ state but config disables ARQ")
	}
	if t.arq != nil {
		t.arq.RestoreStats(st.ARQ)
	}
	if t.fec == nil && st.FECCorrected != 0 {
		return errors.New("fleet: checkpoint carries FEC state but config disables FEC")
	}
	if t.fec != nil {
		t.fec.RestoreCorrected(st.FECCorrected)
	}
	if (t.link != nil) != (st.Link != nil) {
		return errors.New("fleet: burst-link state does not match config")
	}
	if t.link != nil {
		link, err := fault.RestoreBurstLink(*cfg.Faults, *st.Link)
		if err != nil {
			return err
		}
		t.link = link
	}
	return nil
}

func (t *transportStage) Close() {
	comm.PutByteBuf(t.rxFramePtr)
	if t.bitPtr != nil {
		comm.PutBitBuf(t.bitPtr)
		comm.PutBitBuf(t.rxBitPtr)
		comm.PutSymbolBuf(t.symPtr)
	}
	if t.codedPtr != nil {
		comm.PutBitBuf(t.codedPtr)
		comm.PutBitBuf(t.decPtr)
	}
	if t.linkPtr != nil {
		comm.PutByteBuf(t.linkPtr)
	}
}

// receiverStage is the wearable side: frame validation, sequence
// tracking and gap concealment, plus the residual-error accounting and
// the determinism digest over every delivered byte.
type receiverStage struct {
	rx        *wearable.Receiver
	onDeliver func(tick int, data []byte, accepted bool)
}

func (r *receiverStage) Name() string { return "receiver" }

func (r *receiverStage) Step(tk *Tick) error {
	if tk.Blanked || tk.Delivered == nil {
		return nil
	}
	got := tk.Delivered
	// CRC-rejected frames are counted as corrupt. An accepted frame's
	// samples alias the receiver's scratch until the next tick; every
	// consumer (record, remember, conceal, decode accumulate) copies or
	// folds them synchronously.
	fr, rerr := r.rx.Receive(got)
	frame := tk.Frame
	tk.Res.DataBits += int64(len(frame) * 8)
	for i, b := range frame {
		if i < len(got) {
			tk.Res.DataBitErrors += int64(mathbits.OnesCount8(b ^ got[i]))
		} else {
			tk.Res.DataBitErrors += 8
		}
	}
	for _, b := range got {
		tk.Res.Digest = (tk.Res.Digest ^ uint64(b)) * fnvPrime
	}
	if rerr == nil {
		tk.RxFrame = fr
		tk.RxOK = true
	}
	if r.onDeliver != nil {
		r.onDeliver(tk.N, got, rerr == nil)
	}
	return nil
}

func (r *receiverStage) Snapshot(st *PipelineState) {
	st.Rx = r.rx.Snapshot()
}

func (r *receiverStage) Restore(cfg Config, st *PipelineState) error {
	return r.rx.RestoreState(st.Rx)
}

func (r *receiverStage) Close() {}
