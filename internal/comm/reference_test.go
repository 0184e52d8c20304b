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
// errors, the per-draw AWGN transmit, and the bit-per-byte stream
// conversions and Hamming(7,4) codec the uplink ran before it was
// packed — as test oracles, each pinned against its production
// counterpart by an identity test below.

// refAppendBytesAsBits unpacks buf MSB-first into one 0/1 element per
// bit.
func refAppendBytesAsBits(dst []byte, buf []byte) []byte {
	for _, b := range buf {
		for i := 7; i >= 0; i-- {
			dst = append(dst, (b>>i)&1)
		}
	}
	return dst
}

// refAppendBitsAsBytes packs 0/1 elements MSB-first back into bytes.
// Trailing bits short of a full byte are dropped, so a stream padded to
// a symbol boundary collapses back to its byte length.
func refAppendBitsAsBytes(dst []byte, bits []byte) []byte {
	for n := 0; n+8 <= len(bits); n += 8 {
		var b byte
		for i := 0; i < 8; i++ {
			if bits[n+i] != 0 {
				b |= 1 << (7 - i)
			}
		}
		dst = append(dst, b)
	}
	return dst
}

// refPackBits packs 0/1 elements MSB-first, keeping a final partial byte
// zero-filled — the packed layout the production kernels emit.
func refPackBits(bits []byte) []byte {
	for len(bits)%8 != 0 {
		bits = append(bits[:len(bits):len(bits)], 0)
	}
	return refAppendBitsAsBytes(nil, bits)
}

// refFECEncode is the bit-level Hamming(7,4) encoder: data bits (0/1
// elements) zero-padded to a multiple of 4, coded, and emitted
// column-major per depth-codeword block.
func refFECEncode(depth int, dst []byte, bits []byte) []byte {
	words := (len(bits) + fecDataBits - 1) / fecDataBits
	bit := func(i int) byte {
		if i < len(bits) {
			return bits[i] & 1
		}
		return 0
	}
	for w0 := 0; w0 < words; w0 += depth {
		rows := min(depth, words-w0)
		block := make([]byte, rows*fecCodeBits)
		for r := 0; r < rows; r++ {
			i := (w0 + r) * fecDataBits
			cw := hammingEncode(bit(i), bit(i+1), bit(i+2), bit(i+3))
			copy(block[r*fecCodeBits:], cw[:])
		}
		for col := 0; col < fecCodeBits; col++ {
			for r := 0; r < rows; r++ {
				dst = append(dst, block[r*fecCodeBits+col])
			}
		}
	}
	return dst
}

// refFECDecode deinterleaves and decodes a bit-level coded stream,
// returning the data bits and the number of corrected codewords. The
// coded length must be a multiple of 7.
func refFECDecode(depth int, dst []byte, coded []byte) ([]byte, int, error) {
	if len(coded)%fecCodeBits != 0 {
		return dst, 0, fmt.Errorf("comm: coded length %d not a multiple of %d", len(coded), fecCodeBits)
	}
	words := len(coded) / fecCodeBits
	fixed := 0
	for w0 := 0; w0 < words; w0 += depth {
		rows := min(depth, words-w0)
		block := make([]byte, rows*fecCodeBits)
		base := w0 * fecCodeBits
		for col := 0; col < fecCodeBits; col++ {
			for r := 0; r < rows; r++ {
				block[r*fecCodeBits+col] = coded[base+col*rows+r] & 1
			}
		}
		for r := 0; r < rows; r++ {
			d, corrected := hammingDecode(block[r*fecCodeBits : (r+1)*fecCodeBits])
			if corrected {
				fixed++
			}
			dst = append(dst, d[:]...)
		}
	}
	return dst, fixed, nil
}

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

// packedModulations is every modulation the packed modem carries, up to
// 1024-QAM.
func packedModulations() []Modulation {
	return []Modulation{OOK{}, NewQAM(1), NewQAM(2), NewQAM(4), NewQAM(6), NewQAM(8), NewQAM(10)}
}

// refAir is the bit-level oracle for one packed modem pass: the first
// nbits bits of data, zero-padded to whole symbols, modulated by the
// bit-level Modem.
func refAir(t testing.TB, m Modem, data []byte, nbits int) []Symbol {
	t.Helper()
	bits := refAppendBytesAsBits(nil, data)[:nbits]
	for len(bits)%m.BitsPerSymbol() != 0 {
		bits = append(bits, 0)
	}
	syms, err := m.AppendModulate(nil, bits)
	if err != nil {
		t.Fatal(err)
	}
	return syms
}

// TestPackedModemIdentical pins the packed modem against the bit-level
// path for every modulation, at bit lengths that do and do not fill
// whole bytes and whole symbols: identical symbols (bit for bit),
// identical hard decisions after noise packed with a zero-filled final
// byte, and popcount bit-error counts equal to the per-bit comparison.
func TestPackedModemIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, mod := range packedModulations() {
		pm, err := NewPackedModem(mod)
		if err != nil {
			t.Fatal(err)
		}
		bitModem, err := NewModem(mod)
		if err != nil {
			t.Fatal(err)
		}
		k := pm.BitsPerSymbol()
		for iter := 0; iter < 50; iter++ {
			data := make([]byte, 1+rng.Intn(96))
			rng.Read(data)
			nbits := len(data) * 8
			if iter%2 == 1 {
				nbits -= rng.Intn(8)
			}
			refSyms := refAir(t, bitModem, data, nbits)
			// Append behind a prefix: the packed modem must extend dst.
			prefix := []Symbol{{I: 7, Q: 7}}
			gotSyms := pm.AppendModulate(prefix, data, nbits)[1:]
			if len(refSyms) != len(gotSyms) {
				t.Fatalf("%s: %d symbols vs %d", mod.Name(), len(gotSyms), len(refSyms))
			}
			for i := range refSyms {
				if math.Float64bits(refSyms[i].I) != math.Float64bits(gotSyms[i].I) ||
					math.Float64bits(refSyms[i].Q) != math.Float64bits(gotSyms[i].Q) {
					t.Fatalf("%s sym %d: %+v vs %+v", mod.Name(), i, gotSyms[i], refSyms[i])
				}
			}

			// Same noise on both symbol streams (twin seeded channels), then
			// demodulate both ways.
			chA := NewAWGNChannel(4, int64(iter))
			chB := NewAWGNChannel(4, int64(iter))
			chA.TransmitInPlace(refSyms)
			chB.TransmitInPlace(gotSyms)
			rxBits := bitModem.AppendDemodulate(nil, refSyms)
			want := refPackBits(rxBits)
			got := pm.AppendDemodulate([]byte{0xA5}, gotSyms)[1:]
			if !bytes.Equal(want, got) {
				t.Fatalf("%s: demodulated bytes differ\n got %x\nwant %x", mod.Name(), got, want)
			}

			// Bit-error accounting over the symbol-padded stream: XOR +
			// popcount against the zero-filled sent bytes equals the
			// per-bit comparison.
			txBits := refAppendBytesAsBits(nil, data)[:nbits]
			for len(txBits)%k != 0 {
				txBits = append(txBits, 0)
			}
			perBit := 0
			for i := range txBits {
				if txBits[i] != rxBits[i] {
					perBit++
				}
			}
			tx := refPackBits(txBits)
			pop := 0
			for i := range got {
				pop += mathbits.OnesCount8(tx[i] ^ got[i])
			}
			if perBit != pop {
				t.Fatalf("%s: popcount errors %d != per-bit %d", mod.Name(), pop, perBit)
			}
		}
	}
	// Modulations without a modem are declined with NewModem's error.
	for _, m := range []Modulation{QAM{Bits: 3}, QAM{Bits: 0}, QAM{Bits: -2}, QAM{Bits: MaxQAMBits + 2}, QAM{Bits: 64}, QAM{Bits: 200}} {
		if _, err := NewPackedModem(m); err == nil {
			t.Errorf("QAM bits %d: packed modem built", m.(QAM).Bits)
		}
	}
}

// TestFECPackedMatchesOracle pins the packed Hamming(7,4) codec against
// the bit-level one at every depth shape: identical coded bits (with a
// zero-filled final byte), and — after random bit flips — identical
// decoded data and correction counts.
func TestFECPackedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, depth := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 33, 64, 200} {
		f, err := NewFEC(depth)
		if err != nil {
			t.Fatal(err)
		}
		for iter := 0; iter < 40; iter++ {
			data := make([]byte, rng.Intn(80+depth))
			rng.Read(data)
			refCoded := refFECEncode(depth, nil, refAppendBytesAsBits(nil, data))
			coded := f.AppendEncode(nil, data)
			if want := refPackBits(refCoded); !bytes.Equal(want, coded) {
				t.Fatalf("depth %d: coded stream differs\n got %x\nwant %x", depth, coded, want)
			}
			for flips := rng.Intn(len(refCoded)/4 + 1); flips > 0; flips-- {
				pos := rng.Intn(len(refCoded))
				refCoded[pos] ^= 1
				coded[pos/8] ^= 0x80 >> (pos % 8)
			}
			wantData, wantFixed, _ := refFECDecode(depth, nil, refCoded)
			before := f.Corrected()
			gotData, gotFixed, err := f.AppendDecode(nil, coded, len(refCoded))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(refPackBits(wantData), gotData) || gotFixed != wantFixed {
				t.Fatalf("depth %d: decoded %x (%d fixed), oracle %x (%d fixed)",
					depth, gotData, gotFixed, refPackBits(wantData), wantFixed)
			}
			if f.Corrected()-before != int64(gotFixed) {
				t.Fatalf("depth %d: Corrected advanced by %d, call reported %d", depth, f.Corrected()-before, gotFixed)
			}
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
	bits := refAppendBytesAsBits(nil, data)
	syms := make([]Symbol, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bb := refAppendBytesAsBits(bits[:0], data)
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
		syms = pm.AppendModulate(syms[:0], data, len(data)*8)
	}
}

func BenchmarkDemodulateBits(b *testing.B) {
	m, _ := NewModem(NewQAM(4))
	data := make([]byte, 54)
	rand.New(rand.NewSource(1)).Read(data)
	syms, _ := m.AppendModulate(nil, refAppendBytesAsBits(nil, data))
	NewAWGNChannel(15.8, 1).TransmitInPlace(syms)
	bits := make([]byte, 0, 512)
	out := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bits = m.AppendDemodulate(bits[:0], syms)
		out = refAppendBitsAsBytes(out[:0], bits)
	}
}

func BenchmarkDemodulatePacked(b *testing.B) {
	pm, _ := NewPackedModem(NewQAM(4))
	data := make([]byte, 54)
	rand.New(rand.NewSource(1)).Read(data)
	syms := pm.AppendModulate(nil, data, len(data)*8)
	NewAWGNChannel(15.8, 1).TransmitInPlace(syms)
	out := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out = pm.AppendDemodulate(out[:0], syms)
	}
}

// BenchmarkFEC codes and decodes one 48-byte frame (the fleet's
// 32-channel, 10-bit frame plus header) at each interleaver depth.
func BenchmarkFEC(b *testing.B) {
	data := make([]byte, 48)
	rand.New(rand.NewSource(1)).Read(data)
	for _, depth := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			f, err := NewFEC(depth)
			if err != nil {
				b.Fatal(err)
			}
			nbits := f.CodedBits(8 * len(data))
			coded := make([]byte, 0, 96)
			back := make([]byte, 0, 64)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				coded = f.AppendEncode(coded[:0], data)
				if back, _, err = f.AppendDecode(back[:0], coded, nbits); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
