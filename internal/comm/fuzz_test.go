package comm

import (
	"bytes"
	"testing"
)

// FuzzParsePacket throws arbitrary bytes at the frame parser. Invariants:
// Decode never panics, and every frame it accepts re-encodes canonically
// to the exact input bytes (the parser accepts nothing it cannot
// round-trip).
func FuzzParsePacket(f *testing.F) {
	p, err := NewPacketizer(10)
	if err != nil {
		f.Fatal(err)
	}
	good, err := p.Encode([]uint16{1, 2, 3, 1023})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0xBC, 0x1F})
	truncated := append([]byte(nil), good[:len(good)-1]...)
	f.Add(truncated)
	corrupted := append([]byte(nil), good...)
	corrupted[len(corrupted)/2] ^= 0x40
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Decode(data)
		if err != nil {
			return
		}
		re, err := EncodeFrame(fr)
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", data, re)
		}
	})
}

// FuzzPackSamples checks the bit-packing round trip for every sample
// width: pack → unpack must be the identity on in-range samples, and the
// Append variant must agree with the allocating one.
func FuzzPackSamples(f *testing.F) {
	f.Add([]byte{0x12, 0x34, 0xFF, 0x00}, uint8(10))
	f.Add([]byte{1}, uint8(1))
	f.Add([]byte{0xAB, 0xCD, 0xEF}, uint8(16))

	f.Fuzz(func(t *testing.T, raw []byte, bitsRaw uint8) {
		bits := int(bitsRaw)%16 + 1
		// Interpret pairs of fuzz bytes as samples, masked into range.
		var samples []uint16
		for i := 0; i+1 < len(raw); i += 2 {
			s := uint16(raw[i])<<8 | uint16(raw[i+1])
			if bits < 16 {
				s &= 1<<bits - 1
			}
			samples = append(samples, s)
		}
		if len(samples) == 0 {
			return
		}
		packed := PackSamples(samples, bits)
		if got := AppendPackSamples(nil, samples, bits); !bytes.Equal(got, packed) {
			t.Fatalf("AppendPackSamples disagrees with PackSamples")
		}
		back, err := UnpackSamples(packed, len(samples), bits)
		if err != nil {
			t.Fatalf("unpack failed: %v", err)
		}
		for i := range samples {
			if back[i] != samples[i] {
				t.Fatalf("sample %d: packed %d, unpacked %d at %d bits", i, samples[i], back[i], bits)
			}
		}
	})
}

// FuzzFECEncode codes arbitrary data at depth 1–64 with the tiled
// encoder and checks the stream against the bit-level oracle, bit for
// bit including the zero-filled final byte. Both directions append
// after a prefix they must leave alone, into capacity pre-filled with
// ones, so every output byte must be written, not OR-ed; decoding the
// stream back must return the data with no corrections.
func FuzzFECEncode(f *testing.F) {
	f.Add([]byte{0xB2, 0x7F, 0x00}, uint8(3))
	f.Add([]byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{0xA5}, 48), uint8(3))
	f.Add(bytes.Repeat([]byte{0xFF}, 100), uint8(63))
	f.Fuzz(func(t *testing.T, data []byte, depthRaw uint8) {
		depth := int(depthRaw)%64 + 1
		fec, err := NewFEC(depth)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte{0xC3, 0x3C}
		dirty := func(n int) []byte {
			buf := bytes.Repeat([]byte{0xFF}, len(prefix)+n)
			return append(buf[:0], prefix...)
		}
		got := fec.AppendEncode(dirty(2*len(data)), data)
		want := refPackBits(refFECEncode(depth, nil, refAppendBytesAsBits(nil, data)))
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("depth %d: %d bytes coded to\n %x\noracle\n %x", depth, len(data), got, want)
		}
		back, fixed, err := fec.AppendDecode(dirty(len(data)), got[len(prefix):], fec.CodedBits(8*len(data)))
		if err != nil || fixed != 0 || !bytes.Equal(back[:len(prefix)], prefix) || !bytes.Equal(back[len(prefix):], data) {
			t.Fatalf("depth %d: round trip %x (%d fixed, err %v), want %x after the prefix", depth, back, fixed, err, data)
		}
	})
}

// FuzzFECDecode throws arbitrary coded streams at the packed
// Hamming(7,4) decoder and checks it against the bit-level oracle:
// identical data, correction count and error (or lack of one), for the
// fuzz bytes read both as one coded bit each (low bit) and as a packed
// stream, at depth 1–32. Decode never panics, and Corrected advances by
// exactly the reported count.
func FuzzFECDecode(f *testing.F) {
	enc, _ := NewFEC(4)
	clean := refFECEncode(4, nil, []byte{1, 0, 1, 1, 0, 0, 1, 0})
	f.Add(clean, uint8(4))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9}, uint8(2))
	f.Add(make([]byte, 70), uint8(16))
	f.Add(enc.AppendEncode(nil, []byte{0xB2, 0x7F, 0x00}), uint8(4))

	f.Fuzz(func(t *testing.T, raw []byte, depthRaw uint8) {
		depth := int(depthRaw)%32 + 1
		check := func(name string, bits []byte) {
			t.Helper()
			fec, err := NewFEC(depth)
			if err != nil {
				t.Fatal(err)
			}
			want, wantFixed, wantErr := refFECDecode(depth, nil, bits)
			got, fixed, err := fec.AppendDecode(nil, refPackBits(bits), len(bits))
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s: %d bits: error %v, oracle %v", name, len(bits), err, wantErr)
			}
			if err != nil {
				return
			}
			if !bytes.Equal(got, refPackBits(want)) || fixed != wantFixed {
				t.Fatalf("%s: depth %d: decoded %x (%d fixed), oracle %x (%d fixed)",
					name, depth, got, fixed, refPackBits(want), wantFixed)
			}
			if fec.Corrected() != int64(fixed) {
				t.Fatalf("%s: Corrected() = %d after one call reporting %d", name, fec.Corrected(), fixed)
			}
		}
		lowBits := make([]byte, len(raw))
		for i, b := range raw {
			lowBits[i] = b & 1
		}
		check("low bits", lowBits)
		packed := refAppendBytesAsBits(nil, raw)
		check("packed", packed[:len(packed)-len(packed)%fecCodeBits])
	})
}

// FuzzPackedModem round-trips a fuzzer-chosen bit stream through the
// packed modem for every modulation: noiseless, the decisions are the
// first nbits bits of the input with zero pad to whole symbols and a
// zero-filled final byte; and through a seeded AWGN channel the symbols
// and decisions match the bit-level Modem oracle bit for bit.
func FuzzPackedModem(f *testing.F) {
	f.Add([]byte{0xBC, 0x1F, 0x00, 0xFF}, uint8(3), uint16(29))
	f.Add([]byte{}, uint8(0), uint16(0))
	f.Add([]byte{0x80}, uint8(4), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, modRaw uint8, nbitsRaw uint16) {
		mods := packedModulations()
		mod := mods[int(modRaw)%len(mods)]
		pm, err := NewPackedModem(mod)
		if err != nil {
			t.Fatal(err)
		}
		bm, err := NewModem(mod)
		if err != nil {
			t.Fatal(err)
		}
		nbits := int(nbitsRaw) % (8*len(data) + 1)
		syms := pm.AppendModulate(nil, data, nbits)
		bits := refAppendBytesAsBits(nil, data)[:nbits]
		for len(bits)%pm.BitsPerSymbol() != 0 {
			bits = append(bits, 0)
		}
		want := refPackBits(bits)
		if got := pm.AppendDemodulate(nil, syms); !bytes.Equal(got, want) {
			t.Fatalf("%s, %d bits: noiseless round trip %x, want %x", mod.Name(), nbits, got, want)
		}
		ref := refAir(t, bm, data, nbits)
		NewAWGNChannel(2, int64(nbits)).TransmitInPlace(ref)
		NewAWGNChannel(2, int64(nbits)).TransmitInPlace(syms)
		want = refPackBits(bm.AppendDemodulate(nil, ref))
		if got := pm.AppendDemodulate(nil, syms); !bytes.Equal(got, want) {
			t.Fatalf("%s, %d bits: noisy decisions %x, oracle %x", mod.Name(), nbits, got, want)
		}
	})
}

// FuzzARQReorder drives the ARQ loop with a fuzzer-chosen schedule of
// drops, corruptions, duplicates and delayed (reordered) deliveries.
// Invariants: no panic, every frame delivered to the receiver decodes to
// a payload that was actually sent, attempts never exceed the budget, and
// the stats ledger balances.
func FuzzARQReorder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0xFF, 0x80}, uint8(2))
	f.Add([]byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{0xAA}, 40), uint8(5))

	f.Fuzz(func(t *testing.T, schedule []byte, retriesRaw uint8) {
		retries := int(retriesRaw) % 6
		arq, err := NewARQ(ARQConfig{MaxRetries: retries})
		if err != nil {
			t.Fatal(err)
		}
		pkt, err := NewPacketizer(8)
		if err != nil {
			t.Fatal(err)
		}
		sent := map[uint32]uint16{}
		var delayed [][]byte // frames the link held back, replayed later
		si := 0
		next := func() byte {
			if si >= len(schedule) {
				return 0
			}
			b := schedule[si]
			si++
			return b
		}
		deliver := func(buf []byte) bool {
			fr, err := Decode(buf)
			if err != nil {
				return false
			}
			want, known := sent[fr.Seq]
			if !known || len(fr.Samples) != 1 || fr.Samples[0] != want {
				t.Fatalf("receiver accepted a frame that was never sent: seq %d", fr.Seq)
			}
			return true
		}
		frames := 12
		for i := 0; i < frames; i++ {
			payload := uint16(i * 17 % 251)
			frame, err := pkt.Encode([]uint16{payload})
			if err != nil {
				t.Fatal(err)
			}
			sent[uint32(i)] = payload
			attempts, _ := arq.Send(frame, len(frame)*8, func(buf []byte) bool {
				switch next() % 4 {
				case 0: // clean delivery
					return deliver(buf)
				case 1: // dropped
					return false
				case 2: // corrupted in flight
					bad := append([]byte(nil), buf...)
					bad[int(next())%len(bad)] ^= 1 << (next() % 8)
					return deliver(bad)
				default: // held back: replay later, out of order
					delayed = append(delayed, append([]byte(nil), buf...))
					return false
				}
			})
			if attempts > retries+1 {
				t.Fatalf("%d attempts exceed budget %d", attempts, retries)
			}
			// Stale/reordered frames surface between sends; the receiver
			// must still only ever see frames that were sent.
			if len(delayed) > 0 && next()%2 == 0 {
				deliver(delayed[len(delayed)-1])
				delayed = delayed[:len(delayed)-1]
			}
		}
		st := arq.Stats()
		if st.Sent != int64(frames) || st.Delivered+st.Failed != st.Sent {
			t.Fatalf("ledger imbalance: %+v", st)
		}
		if st.Retransmits != st.NACKs {
			t.Fatalf("retransmits %d != NACKs %d", st.Retransmits, st.NACKs)
		}
		if st.Recovered > st.Delivered {
			t.Fatalf("recovered %d > delivered %d", st.Recovered, st.Delivered)
		}
	})
}

// FuzzBitsBytes checks the oracle's bit/byte conversions: unpacking
// bytes to bits and packing back is the identity.
func FuzzBitsBytes(f *testing.F) {
	f.Add([]byte{0xBC, 0x1F, 0x00, 0xFF})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		bits := refAppendBytesAsBits(nil, data)
		if len(bits) != len(data)*8 {
			t.Fatalf("%d bytes unpacked to %d bits", len(data), len(bits))
		}
		back := refAppendBitsAsBytes(nil, bits)
		if !bytes.Equal(back, data) {
			t.Fatalf("bit round-trip mismatch: %x -> %x", data, back)
		}
	})
}
