package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	mathbits "math/bits"
	"math/rand"
	"reflect"
	"testing"
)

// This file holds the reference implementations the production kernels
// replaced — per-bit sample packing and unpacking, Decode with formatted
// errors, and the per-draw AWGN transmit — as test oracles, each pinned
// against its production counterpart by an identity test below.

// refAppendPackSamples packs bit by bit, MSB first.
func refAppendPackSamples(dst []byte, samples []uint16, bits int) []byte {
	base := len(dst)
	for n := (len(samples)*bits + 7) / 8; n > 0; n-- {
		dst = append(dst, 0)
	}
	pos := 0
	for _, s := range samples {
		for b := bits - 1; b >= 0; b-- {
			if s>>b&1 != 0 {
				dst[base+pos/8] |= 1 << (7 - pos%8)
			}
			pos++
		}
	}
	return dst
}

// refUnpackSamples reverses refAppendPackSamples bit by bit.
func refUnpackSamples(data []byte, count, bits int) ([]uint16, error) {
	if need := (count*bits + 7) / 8; len(data) < need {
		return nil, fmt.Errorf("comm: %d bytes too short for %d×%d-bit samples", len(data), count, bits)
	}
	out := make([]uint16, count)
	pos := 0
	for i := range out {
		var v uint16
		for b := 0; b < bits; b++ {
			v <<= 1
			if data[pos/8]>>(7-pos%8)&1 != 0 {
				v |= 1
			}
			pos++
		}
		out[i] = v
	}
	return out, nil
}

// refAppendEncode frames samples through the per-bit packer.
func refAppendEncode(p *Packetizer, dst []byte, samples []uint16) ([]byte, error) {
	if len(samples) == 0 {
		return nil, errors.New("comm: empty sample vector")
	}
	if err := checkSamples(samples, p.SampleBits); err != nil {
		return nil, err
	}
	start := len(dst)
	dst = binary.BigEndian.AppendUint16(dst, FrameMagic)
	dst = binary.BigEndian.AppendUint32(dst, p.seq)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(samples)))
	dst = append(dst, byte(p.SampleBits), 0)
	dst = refAppendPackSamples(dst, samples, p.SampleBits)
	dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
	p.seq++
	return dst, nil
}

// refDecode validates in Decode's order with formatted errors and
// unpacks bit by bit into a fresh slice.
func refDecode(buf []byte) (Frame, error) {
	if len(buf) < frameHeaderLen+4 {
		return Frame{}, ErrShortFrame
	}
	if binary.BigEndian.Uint16(buf[0:2]) != FrameMagic {
		return Frame{}, ErrBadMagic
	}
	body, trailer := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(trailer) {
		return Frame{}, ErrBadCRC
	}
	seq := binary.BigEndian.Uint32(buf[2:6])
	chans := int(binary.BigEndian.Uint16(buf[6:8]))
	bits := int(buf[8])
	flags := buf[9]
	if bits < 1 || bits > 16 {
		return Frame{}, fmt.Errorf("comm: frame sample bits %d invalid", bits)
	}
	payload := body[frameHeaderLen:]
	if want := (chans*bits + 7) / 8; len(payload) != want {
		return Frame{}, fmt.Errorf("comm: payload %d bytes, want %d", len(payload), want)
	}
	if pad := len(payload)*8 - chans*bits; pad > 0 && payload[len(payload)-1]&(1<<pad-1) != 0 {
		return Frame{}, fmt.Errorf("comm: nonzero payload padding bits")
	}
	samples, err := refUnpackSamples(payload, chans, bits)
	if err != nil {
		return Frame{}, err
	}
	return Frame{Seq: seq, SampleBits: bits, Samples: samples, Flags: flags}, nil
}

// refTransmitInPlace draws the channel's noise one NormFloat64 at a time.
func refTransmitInPlace(c *AWGNChannel, syms []Symbol) {
	for i := range syms {
		syms[i].I += c.rng.NormFloat64() * c.sigma
		syms[i].Q += c.rng.NormFloat64() * c.sigma
	}
}

// TestAppendEncodeFastIdentical pins the word-accumulator encoder behind
// AppendEncode against the per-bit reference: identical frame bytes and
// sequence evolution at every sample width.
func TestAppendEncodeFastIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for bits := 1; bits <= 16; bits++ {
		ref, _ := NewPacketizer(bits)
		fast, _ := NewPacketizer(bits)
		for iter := 0; iter < 20; iter++ {
			n := 1 + rng.Intn(64)
			samples := make([]uint16, n)
			max := int(1)<<bits - 1
			for i := range samples {
				samples[i] = uint16(rng.Intn(max + 1))
			}
			want, err := refAppendEncode(ref, nil, samples)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fast.AppendEncode(nil, samples)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("bits=%d iter=%d: fast frame differs\n got %x\nwant %x", bits, iter, got, want)
			}
			if ref.Seq() != fast.Seq() {
				t.Fatalf("bits=%d: seq diverged %d vs %d", bits, ref.Seq(), fast.Seq())
			}
			// The packer masks out-of-range high bits exactly as the
			// per-bit reference ignores them.
			wild := make([]uint16, n)
			for i := range wild {
				wild[i] = uint16(rng.Intn(1 << 16))
			}
			if w, g := refAppendPackSamples(nil, wild, bits), AppendPackSamples(nil, wild, bits); !bytes.Equal(w, g) {
				t.Fatalf("bits=%d: unmasked samples pack differently\n got %x\nwant %x", bits, g, w)
			}
		}
	}
	// Error parity: empty vector and out-of-range samples must reject.
	p, _ := NewPacketizer(4)
	if _, err := p.AppendEncode(nil, nil); err == nil {
		t.Error("empty sample vector accepted")
	}
	if _, err := p.AppendEncode(nil, []uint16{16}); err == nil {
		t.Error("out-of-range sample accepted")
	}
}

// TestDecodeFastIdentical pins Decode and AppendDecode against the
// reference decoder on valid frames and on systematic corruptions: same
// accept/reject decision for every mutation, the same sentinel where
// the reference returns one, and the same decoded frame when accepted.
func TestDecodeFastIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var scratch []uint16
	for bits := 1; bits <= 16; bits++ {
		p, _ := NewPacketizer(bits)
		samples := make([]uint16, 1+rng.Intn(48))
		for i := range samples {
			samples[i] = uint16(rng.Intn(int(1)<<bits)) & (1<<bits - 1)
		}
		frame, err := p.AppendEncode(nil, samples)
		if err != nil {
			t.Fatal(err)
		}
		check := func(buf []byte) {
			t.Helper()
			want, werr := refDecode(buf)
			got, gerr := Decode(buf)
			sc, serr := AppendDecode(scratch[:0], buf)
			if serr == nil {
				scratch = sc.Samples
			}
			for _, e := range []error{gerr, serr} {
				if (werr == nil) != (e == nil) {
					t.Fatalf("bits=%d: accept mismatch: reference err=%v fast err=%v", bits, werr, e)
				}
				switch werr {
				case ErrShortFrame, ErrBadMagic, ErrBadCRC:
					if e != werr {
						t.Fatalf("bits=%d: cause %v, want %v", bits, e, werr)
					}
				}
			}
			if werr == nil && (!reflect.DeepEqual(want, got) || !reflect.DeepEqual(want, sc)) {
				t.Fatalf("bits=%d: frame mismatch\n got %+v\n  scratch %+v\nwant %+v", bits, got, sc, want)
			}
		}
		check(frame)
		// Flip one bit in every byte position.
		for i := range frame {
			mut := append([]byte(nil), frame...)
			mut[i] ^= 1 << uint(rng.Intn(8))
			check(mut)
		}
		// Truncations.
		for _, cut := range []int{1, 4, len(frame) - 1, len(frame)} {
			if cut <= len(frame) {
				check(frame[:len(frame)-cut])
			}
		}
		// Unpacking agrees with the per-bit reference on any payload.
		raw := make([]byte, 1+rng.Intn(64))
		rng.Read(raw)
		count := len(raw) * 8 / bits
		want, _ := refUnpackSamples(raw, count, bits)
		if got, err := UnpackSamples(raw, count, bits); err != nil || !reflect.DeepEqual(want, got) {
			t.Fatalf("bits=%d: unpack %v (%v), want %v", bits, got, err, want)
		}
	}
}

// TestPackedModemIdentical pins the byte-oriented modem against the
// bit-level path for every k that divides 8: identical symbols
// (bit-for-bit), identical hard decisions after noise, and popcount
// bit-error counts equal to the per-bit comparison.
func TestPackedModemIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, qbits := range []int{2, 4, 8} {
		mod := NewQAM(qbits)
		pm, ok := NewPackedModem(mod)
		if !ok {
			t.Fatalf("QAM%d: packed modem unavailable", 1<<qbits)
		}
		bitModem, err := NewModem(mod)
		if err != nil {
			t.Fatal(err)
		}
		for iter := 0; iter < 50; iter++ {
			data := make([]byte, 1+rng.Intn(96))
			rng.Read(data)

			refBits := AppendBytesAsBits(nil, data)
			refSyms, err := bitModem.AppendModulate(nil, refBits)
			if err != nil {
				t.Fatal(err)
			}
			gotSyms := pm.AppendModulateBytes(nil, data)
			if len(refSyms) != len(gotSyms) {
				t.Fatalf("QAM%d: %d symbols vs %d", 1<<qbits, len(gotSyms), len(refSyms))
			}
			for i := range refSyms {
				if math.Float64bits(refSyms[i].I) != math.Float64bits(gotSyms[i].I) ||
					math.Float64bits(refSyms[i].Q) != math.Float64bits(gotSyms[i].Q) {
					t.Fatalf("QAM%d sym %d: %+v vs %+v", 1<<qbits, i, gotSyms[i], refSyms[i])
				}
			}

			// Same noise on both symbol streams (twin seeded channels), then
			// demodulate both ways.
			chA := NewAWGNChannel(4, int64(iter))
			chB := NewAWGNChannel(4, int64(iter))
			chA.TransmitInPlace(refSyms)
			chB.TransmitInPlace(gotSyms)
			rxBits := bitModem.AppendDemodulate(nil, refSyms)
			rxBytes := AppendBitsAsBytes(nil, rxBits)
			gotBytes := pm.AppendDemodulateBytes(nil, gotSyms)
			if !bytes.Equal(rxBytes, gotBytes) {
				t.Fatalf("QAM%d: demodulated bytes differ\n got %x\nwant %x", 1<<qbits, gotBytes, rxBytes)
			}

			// Bit-error accounting: XOR+popcount over bytes must equal the
			// scalar per-bit comparison (k | 8 means no pad bits exist).
			perBit := 0
			for i := range refBits {
				if refBits[i] != rxBits[i] {
					perBit++
				}
			}
			pop := 0
			for i := range data {
				pop += mathbits.OnesCount8(data[i] ^ gotBytes[i])
			}
			if perBit != pop {
				t.Fatalf("QAM%d: popcount errors %d != per-bit %d", 1<<qbits, pop, perBit)
			}
		}
	}
	// Non-applicable modulations must be declined.
	for _, m := range []Modulation{OOK{}, NewQAM(1), NewQAM(6)} {
		if _, ok := NewPackedModem(m); ok {
			t.Errorf("%s: packed modem should not apply", m.Name())
		}
	}
}

// TestTransmitInPlaceFastIdentical pins the bulk-sampled AWGN transmit
// against the per-draw reference on twin channels: identical noisy
// symbols (bit for bit) and identical serialized channel state, draw
// counts included, over block sizes that straddle awgnBlock.
func TestTransmitInPlaceFastIdentical(t *testing.T) {
	ref := NewAWGNChannel(15.8, 77)
	fast := NewAWGNChannel(15.8, 77)
	rng := rand.New(rand.NewSource(5))
	for block := 0; block < 60; block++ {
		n := 1 + rng.Intn(3*awgnBlock)
		a := make([]Symbol, n)
		for i := range a {
			a[i] = Symbol{I: rng.NormFloat64(), Q: rng.NormFloat64()}
		}
		b := append([]Symbol(nil), a...)
		refTransmitInPlace(ref, a)
		fast.TransmitInPlace(b)
		for i := range a {
			if math.Float64bits(a[i].I) != math.Float64bits(b[i].I) ||
				math.Float64bits(a[i].Q) != math.Float64bits(b[i].Q) {
				t.Fatalf("block %d symbol %d: %+v != %+v", block, i, b[i], a[i])
			}
		}
	}
	if ref.Snapshot() != fast.Snapshot() {
		t.Fatalf("channel states diverge: %+v vs %+v", fast.Snapshot(), ref.Snapshot())
	}
}

// TestTransmitSlabFastIdentical pins the bulk-sampled transmit on a
// stream of small, ragged blocks at a lower Eb/N0 than the sweep above:
// identical noisy symbols and identical channel state afterwards.
func TestTransmitSlabFastIdentical(t *testing.T) {
	ref := NewAWGNChannel(10, 77)
	fast := NewAWGNChannel(10, 77)
	rng := rand.New(rand.NewSource(5))
	for block := 0; block < 50; block++ {
		n := 1 + rng.Intn(200)
		a := make([]Symbol, n)
		for i := range a {
			a[i] = Symbol{I: rng.NormFloat64(), Q: rng.NormFloat64()}
		}
		b := append([]Symbol(nil), a...)
		refTransmitInPlace(ref, a)
		fast.TransmitInPlace(b)
		for i := range a {
			if math.Float64bits(a[i].I) != math.Float64bits(b[i].I) ||
				math.Float64bits(a[i].Q) != math.Float64bits(b[i].Q) {
				t.Fatalf("block %d symbol %d: %+v != %+v", block, i, b[i], a[i])
			}
		}
	}
	if ref.Snapshot() != fast.Snapshot() {
		t.Fatalf("channel states diverge: %+v vs %+v", fast.Snapshot(), ref.Snapshot())
	}
}

// TestFECFramesIdentical pins the frame-slab codec against per-frame
// scalar calls including the transport's modem-alignment padding.
func TestFECFramesIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, depth := range []int{1, 4} {
		for _, padTo := range []int{1, 4, 6} {
			ref, _ := NewFEC(depth)
			slab, _ := NewFEC(depth)
			const frameBits = 72
			const nFrames = 5
			src := make([]byte, frameBits*nFrames)
			for i := range src {
				src[i] = byte(rng.Intn(2))
			}
			// Reference: encode+pad each frame separately.
			var want []byte
			for f := 0; f < nFrames; f++ {
				enc := ref.AppendEncode(nil, src[f*frameBits:(f+1)*frameBits])
				if padTo > 1 {
					for len(enc)%padTo != 0 {
						enc = append(enc, 0)
					}
				}
				want = append(want, enc...)
			}
			got, err := slab.AppendEncodeFrames(nil, src, frameBits, padTo)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("depth=%d padTo=%d: coded slabs differ", depth, padTo)
			}

			// Corrupt a few bits, then decode both ways.
			airBits := len(got) / nFrames
			codedBits := ref.CodedBits(frameBits)
			for i := 0; i < 8; i++ {
				got[rng.Intn(len(got))] ^= 1
			}
			var wantDec []byte
			wantFixed := make([]int, nFrames)
			for f := 0; f < nFrames; f++ {
				var err error
				wantDec, wantFixed[f], err = ref.AppendDecode(wantDec, got[f*airBits:f*airBits+codedBits])
				if err != nil {
					t.Fatal(err)
				}
			}
			gotFixed := make([]int, nFrames)
			gotDec, err := slab.AppendDecodeFrames(nil, got, airBits, codedBits, gotFixed)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantDec, gotDec) {
				t.Fatalf("depth=%d padTo=%d: decoded slabs differ", depth, padTo)
			}
			if !reflect.DeepEqual(wantFixed, gotFixed) {
				t.Fatalf("depth=%d padTo=%d: fixed counts %v vs %v", depth, padTo, gotFixed, wantFixed)
			}
		}
	}
}

func benchSamples(n, bits int) []uint16 {
	rng := rand.New(rand.NewSource(1))
	s := make([]uint16, n)
	for i := range s {
		s[i] = uint16(rng.Intn(int(1) << bits))
	}
	return s
}

func BenchmarkAppendEncode(b *testing.B) {
	p, _ := NewPacketizer(10)
	samples := benchSamples(32, 10)
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = p.AppendEncode(buf[:0], samples)
	}
}

func BenchmarkDecode(b *testing.B) {
	p, _ := NewPacketizer(10)
	frame, _ := p.AppendEncode(nil, benchSamples(32, 10))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendDecode(b *testing.B) {
	p, _ := NewPacketizer(10)
	frame, _ := p.AppendEncode(nil, benchSamples(32, 10))
	scratch := make([]uint16, 0, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AppendDecode(scratch[:0], frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModulateBits(b *testing.B) {
	m, _ := NewModem(NewQAM(4))
	data := make([]byte, 54)
	rand.New(rand.NewSource(1)).Read(data)
	bits := AppendBytesAsBits(nil, data)
	syms := make([]Symbol, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bb := AppendBytesAsBits(bits[:0], data)
		syms, _ = m.AppendModulate(syms[:0], bb)
	}
}

func BenchmarkModulatePacked(b *testing.B) {
	pm, _ := NewPackedModem(NewQAM(4))
	data := make([]byte, 54)
	rand.New(rand.NewSource(1)).Read(data)
	syms := make([]Symbol, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		syms = pm.AppendModulateBytes(syms[:0], data)
	}
}

func BenchmarkDemodulateBits(b *testing.B) {
	m, _ := NewModem(NewQAM(4))
	data := make([]byte, 54)
	rand.New(rand.NewSource(1)).Read(data)
	syms, _ := m.AppendModulate(nil, AppendBytesAsBits(nil, data))
	NewAWGNChannel(15.8, 1).TransmitInPlace(syms)
	bits := make([]byte, 0, 512)
	out := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bits = m.AppendDemodulate(bits[:0], syms)
		out = AppendBitsAsBytes(out[:0], bits)
	}
}

func BenchmarkDemodulatePacked(b *testing.B) {
	pm, _ := NewPackedModem(NewQAM(4))
	data := make([]byte, 54)
	rand.New(rand.NewSource(1)).Read(data)
	syms := pm.AppendModulateBytes(nil, data)
	NewAWGNChannel(15.8, 1).TransmitInPlace(syms)
	out := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out = pm.AppendDemodulateBytes(out[:0], syms)
	}
}
