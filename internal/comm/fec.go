package comm

import "fmt"

// Forward error correction for the uplink: Hamming(7,4) with block
// interleaving. Each 4 data bits expand to a 7-bit codeword that corrects
// any single bit error; a depth-D block interleaver transmits D codewords
// column-wise, so a contiguous burst of up to D bit errors lands at most
// one error in each codeword — exactly the failure mode of the
// Gilbert–Elliott bad state. The price is a fixed 7/4 on-air expansion,
// surfaced to the power model through LinkBudget.TxEnergyPerInfoBit.

const (
	fecDataBits = 4
	fecCodeBits = 7
)

// FEC is a Hamming(7,4) codec with a depth-Depth block interleaver
// (Depth = 1 disables interleaving). The codec keeps internal scratch
// buffers, so one instance must not be shared across goroutines.
type FEC struct {
	// Depth is the interleaver depth in codewords.
	Depth int

	corrected int64
	scratch   []byte
}

// NewFEC returns a codec at the given interleaver depth.
func NewFEC(depth int) (*FEC, error) {
	if depth < 1 {
		return nil, fmt.Errorf("comm: FEC interleave depth %d < 1", depth)
	}
	return &FEC{Depth: depth}, nil
}

// Rate returns the code rate (data bits per coded bit): 4/7.
func (f *FEC) Rate() float64 { return float64(fecDataBits) / float64(fecCodeBits) }

// Overhead returns the on-air expansion factor: 7/4.
func (f *FEC) Overhead() float64 { return float64(fecCodeBits) / float64(fecDataBits) }

// CodedBits returns the on-air bit count for n data bits (which are
// zero-padded to a nibble boundary before coding).
func (f *FEC) CodedBits(dataBits int) int {
	return (dataBits + fecDataBits - 1) / fecDataBits * fecCodeBits
}

// Corrected returns the cumulative count of bit errors this codec has
// corrected while decoding.
func (f *FEC) Corrected() int64 { return f.corrected }

// RestoreCorrected overwrites the cumulative correction counter — used
// when a checkpointed codec is rebuilt. The codec is otherwise stateless
// between calls (scratch is transient).
func (f *FEC) RestoreCorrected(n int64) { f.corrected = n }

// hammingEncode maps 4 data bits to the codeword [p1 p2 d1 p3 d2 d3 d4].
func hammingEncode(d1, d2, d3, d4 byte) [fecCodeBits]byte {
	p1 := d1 ^ d2 ^ d4
	p2 := d1 ^ d3 ^ d4
	p3 := d2 ^ d3 ^ d4
	return [fecCodeBits]byte{p1, p2, d1, p3, d2, d3, d4}
}

// hammingDecode corrects a single-bit error in place and returns the four
// data bits plus whether a correction was applied.
func hammingDecode(w []byte) (d [fecDataBits]byte, corrected bool) {
	s1 := w[0] ^ w[2] ^ w[4] ^ w[6]
	s2 := w[1] ^ w[2] ^ w[5] ^ w[6]
	s3 := w[3] ^ w[4] ^ w[5] ^ w[6]
	if syndrome := int(s1) | int(s2)<<1 | int(s3)<<2; syndrome != 0 {
		w[syndrome-1] ^= 1
		corrected = true
	}
	return [fecDataBits]byte{w[2], w[4], w[5], w[6]}, corrected
}

// fecEnc maps a data nibble d1d2d3d4 (MSB first) to its codeword
// [p1 p2 d1 p3 d2 d3 d4] packed MSB-first into 7 bits; fecDec maps every
// 7-bit received word to its corrected nibble, with fecFixed set when
// hammingDecode applied a correction. Both come from the bit-level
// hammingEncode/hammingDecode, so the packed codec decides exactly as
// they do.
var fecEnc, fecDec = fecTables()

const fecFixed = 1 << fecDataBits

func fecTables() (enc [1 << fecDataBits]byte, dec [1 << fecCodeBits]byte) {
	pack := func(bits []byte) byte {
		var v byte
		for _, b := range bits {
			v = v<<1 | b
		}
		return v
	}
	for v := range enc {
		cw := hammingEncode(byte(v>>3)&1, byte(v>>2)&1, byte(v>>1)&1, byte(v)&1)
		enc[v] = pack(cw[:])
	}
	var w [fecCodeBits]byte
	for v := range dec {
		for i := range w {
			w[i] = byte(v>>(fecCodeBits-1-i)) & 1
		}
		d, corrected := hammingDecode(w[:])
		dec[v] = pack(d[:])
		if corrected {
			dec[v] |= fecFixed
		}
	}
	return enc, dec
}

// block returns the scratch codeword row for one interleave block.
func (f *FEC) block(rows int) []byte {
	if cap(f.scratch) < rows {
		f.scratch = make([]byte, rows)
	}
	return f.scratch[:rows]
}

// AppendEncode appends the coded, interleaved bit stream for data to
// dst: CodedBits(8·len(data)) bits packed MSB-first, the final partial
// byte zero-filled. Each byte codes as two nibbles, high first; a
// depth-D block of codewords goes out column-major (every codeword's
// first bit, then every second bit, …). Passing a recycled dst[:0]
// keeps the steady-state path allocation-free.
func (f *FEC) AppendEncode(dst, data []byte) []byte {
	words := 2 * len(data)
	var acc byte
	nacc := 0
	for w0 := 0; w0 < words; w0 += f.Depth {
		block := f.block(min(f.Depth, words-w0))
		for r := range block {
			i := w0 + r
			block[r] = fecEnc[data[i/2]>>(4-4*(i%2))&0x0F]
		}
		for shift := fecCodeBits - 1; shift >= 0; shift-- {
			for _, cw := range block {
				acc = acc<<1 | cw>>shift&1
				if nacc++; nacc == 8 {
					dst = append(dst, acc)
					nacc = 0
				}
			}
		}
	}
	if nacc > 0 {
		dst = append(dst, acc<<(8-nacc))
	}
	return dst
}

// AppendDecode deinterleaves and decodes the first nbits bits of a coded
// stream produced by AppendEncode, appending the recovered data bits —
// 4 per 7 coded bits — packed MSB-first with the final partial byte
// zero-filled. It returns the extended slice and the number of bit
// errors corrected in this call. nbits must be a multiple of 7 and
// coded must hold at least ⌈nbits/8⌉ bytes.
func (f *FEC) AppendDecode(dst, coded []byte, nbits int) ([]byte, int, error) {
	if nbits < 0 || nbits%fecCodeBits != 0 {
		return dst, 0, fmt.Errorf("comm: coded length %d not a multiple of %d", nbits, fecCodeBits)
	}
	if need := (nbits + 7) / 8; len(coded) < need {
		return dst, 0, fmt.Errorf("comm: %d coded bits need %d bytes, have %d", nbits, need, len(coded))
	}
	words := nbits / fecCodeBits
	fixed, pos := 0, 0
	var acc byte
	for w0 := 0; w0 < words; w0 += f.Depth {
		block := f.block(min(f.Depth, words-w0))
		clear(block)
		for col := 0; col < fecCodeBits; col++ {
			for r := range block {
				block[r] = block[r]<<1 | coded[pos>>3]>>(7-pos&7)&1
				pos++
			}
		}
		for r, w := range block {
			d := fecDec[w]
			if d&fecFixed != 0 {
				fixed++
			}
			acc = acc<<4 | d&0x0F
			if (w0+r)%2 == 1 {
				dst = append(dst, acc)
			}
		}
	}
	if words%2 == 1 {
		dst = append(dst, acc<<4)
	}
	f.corrected += int64(fixed)
	return dst, fixed, nil
}
