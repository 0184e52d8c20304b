package fleet

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"mindful/internal/comm"
	"mindful/internal/fault"
)

// This file holds the bit-per-byte transport the uplink ran before it
// was packed — frame bytes unpacked to one 0/1 byte per bit, a
// bit-level Hamming(7,4) codec, the bit-level comm.Modem and per-bit
// error counting — as the oracle TestTransportMatchesOracle pins the
// production transport stage against.

// oracleTransport replaces a pipeline's transport stage with the
// bit-per-byte path. It drives the production stage's own components
// (channel, FEC counter, ARQ, burst link), so Snapshot, Restore and
// Result read the same state either way.
type oracleTransport struct {
	*transportStage
	modem comm.Modem
}

func (o *oracleTransport) Step(tk *Tick) error {
	if tk.Blanked {
		return nil
	}
	if o.arq == nil {
		got, err := o.attempt(tk)
		if err != nil {
			return err
		}
		tk.Delivered = got
		return nil
	}
	air := len(tk.Frame) * 8
	if o.fec != nil {
		air = o.fec.CodedBits(air)
	}
	if k := o.modem.BitsPerSymbol(); air%k != 0 {
		air += k - air%k
	}
	var final []byte
	var attemptErr error
	o.arq.Send(tk.Frame, air, func([]byte) bool {
		got, err := o.attempt(tk)
		if err != nil {
			attemptErr = err
			return false
		}
		if got == nil {
			return false
		}
		final = append([]byte(nil), got...)
		_, err = comm.Decode(got)
		return err == nil
	})
	if attemptErr != nil {
		return attemptErr
	}
	if final != nil {
		tk.Delivered = final
	}
	return nil
}

func (o *oracleTransport) attempt(tk *Tick) ([]byte, error) {
	rx, err := o.air(tk)
	if err != nil {
		return nil, err
	}
	if o.link != nil {
		out := o.link.AppendTransport(nil, rx)
		if out == nil {
			tk.Res.LinkDropped++
		}
		return out, nil
	}
	return rx, nil
}

// air sends the frame bit by bit: unpack, FEC encode, pad to whole
// symbols, modulate, transmit, demodulate, count errors per bit over
// the padded stream, drop the pad, FEC decode, repack.
func (o *oracleTransport) air(tk *Tick) ([]byte, error) {
	frame := tk.Frame
	var tx []byte
	for _, b := range frame {
		for i := 7; i >= 0; i-- {
			tx = append(tx, b>>i&1)
		}
	}
	if o.fec != nil {
		tx = oracleFECEncode(o.fec.Depth, tx)
	}
	codedLen := len(tx)
	for len(tx)%o.modem.BitsPerSymbol() != 0 {
		tx = append(tx, 0)
	}
	syms, err := o.modem.Modulate(tx)
	if err != nil {
		return nil, err
	}
	o.channel.TransmitInPlace(syms)
	rx := o.modem.Demodulate(syms)
	for i := range tx {
		if tx[i] != rx[i] {
			tk.Res.BitErrors++
		}
	}
	tk.Res.BitsSent += int64(len(tx))
	data := rx[:codedLen]
	if o.fec != nil {
		var fixed int
		data, fixed = oracleFECDecode(o.fec.Depth, data)
		o.fec.RestoreCorrected(o.fec.Corrected() + int64(fixed))
		tk.Res.FECCorrected += int64(fixed)
	}
	out := make([]byte, len(frame))
	for i := range out {
		for _, bit := range data[8*i : 8*i+8] {
			out[i] = out[i]<<1 | bit
		}
	}
	return out, nil
}

// oracleFECEncode codes 0/1 data bits (a multiple of 4) with
// Hamming(7,4), codeword [p1 p2 d1 p3 d2 d3 d4], emitting each block of
// depth codewords column-major.
func oracleFECEncode(depth int, bits []byte) []byte {
	var out []byte
	words := len(bits) / 4
	for w0 := 0; w0 < words; w0 += depth {
		var block [][7]byte
		for w := w0; w < min(w0+depth, words); w++ {
			d := bits[4*w : 4*w+4]
			block = append(block, [7]byte{
				d[0] ^ d[1] ^ d[3], d[0] ^ d[2] ^ d[3], d[0],
				d[1] ^ d[2] ^ d[3], d[1], d[2], d[3],
			})
		}
		for col := 0; col < 7; col++ {
			for _, cw := range block {
				out = append(out, cw[col])
			}
		}
	}
	return out
}

// oracleFECDecode reverses oracleFECEncode, correcting one bit per
// codeword by syndrome, and returns the data bits and the number of
// codewords corrected.
func oracleFECDecode(depth int, coded []byte) ([]byte, int) {
	var out []byte
	fixed := 0
	words := len(coded) / 7
	for w0 := 0; w0 < words; w0 += depth {
		rows := min(depth, words-w0)
		for r := 0; r < rows; r++ {
			var w [7]byte
			for col := range w {
				w[col] = coded[7*w0+col*rows+r]
			}
			s := int(w[0]^w[2]^w[4]^w[6]) | int(w[1]^w[2]^w[5]^w[6])<<1 | int(w[3]^w[4]^w[5]^w[6])<<2
			if s != 0 {
				w[s-1] ^= 1
				fixed++
			}
			out = append(out, w[2], w[4], w[5], w[6])
		}
	}
	return out, fixed
}

// transportGrid is every transport shape the pipeline accepts, crossed
// with the inputs that change its arithmetic: each modulation, FEC
// depth (off, uninterleaved, interleaved), ARQ on and off, the fault
// profile on and off, a noisy and a clean operating point, and two frame
// lengths (so the coded stream pads differently to whole symbols).
func transportGrid() []Config {
	mods := []comm.Modulation{comm.OOK{}, comm.NewQAM(1), comm.NewQAM(2), comm.NewQAM(4),
		comm.NewQAM(6), comm.NewQAM(8), comm.NewQAM(10)}
	var grid []Config
	for _, mod := range mods {
		for _, fec := range []int{0, 1, 3, 4} {
			for _, arq := range []int{0, 2} {
				for _, faulty := range []bool{false, true} {
					for _, ebN0 := range []float64{4, 14} {
						for _, sampleBits := range []int{7, 10} {
							cfg := DefaultConfig()
							cfg.Implants, cfg.Workers, cfg.Ticks, cfg.Channels = 1, 1, 24, 9
							cfg.Modulation, cfg.FECDepth, cfg.EbN0dB, cfg.SampleBits = mod, fec, ebN0, sampleBits
							cfg.ARQ.MaxRetries = arq
							if faulty {
								p := fault.DefaultProfile()
								cfg.Faults = &p
							}
							grid = append(grid, cfg)
						}
					}
				}
			}
		}
	}
	return grid
}

// TestTransportMatchesOracle steps the production transport and the
// bit-per-byte oracle in twin pipelines across the whole transport
// grid: every tick must deliver the same bytes (or both nothing), and
// the final counters and serialized state must be identical.
func TestTransportMatchesOracle(t *testing.T) {
	for i, cfg := range transportGrid() {
		name := fmt.Sprintf("%d/%s/fec%d/arq%d/faults=%t/ebn0=%g/bits%d", i, cfg.Modulation.Name(),
			cfg.FECDepth, cfg.ARQ.MaxRetries, cfg.Faults != nil, cfg.EbN0dB, cfg.SampleBits)
		prod, err := NewPipeline(cfg, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := NewPipeline(cfg, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		modem, err := comm.NewModem(cfg.Modulation)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref.stages[1] = &oracleTransport{transportStage: ref.trans, modem: modem}
		for tick := 0; tick < cfg.Ticks; tick++ {
			if err := prod.Step(); err != nil {
				t.Fatalf("%s: tick %d: %v", name, tick, err)
			}
			if err := ref.Step(); err != nil {
				t.Fatalf("%s: tick %d: oracle: %v", name, tick, err)
			}
			got, want := prod.tk.Delivered, ref.tk.Delivered
			if (got == nil) != (want == nil) || !bytes.Equal(got, want) {
				t.Fatalf("%s: tick %d: delivered %x, oracle %x", name, tick, got, want)
			}
		}
		if got, want := prod.Result(), ref.Result(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: result\n got %+v\nwant %+v", name, got, want)
		}
		gotSt, err := prod.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		wantSt, err := ref.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotSt, wantSt) {
			t.Fatalf("%s: snapshot\n got %+v\nwant %+v", name, gotSt, wantSt)
		}
		prod.Close()
		ref.Close()
	}
}
