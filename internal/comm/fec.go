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

// AppendEncode appends the coded, interleaved bit stream for the data
// bits (0/1 elements) to dst. Data is zero-padded to a multiple of 4
// bits, so decode returns ⌈len/4⌉·4 bits; callers framing byte payloads
// truncate to the known frame length. Passing a recycled dst[:0] keeps
// the steady-state path allocation-free.
func (f *FEC) AppendEncode(dst []byte, bits []byte) []byte {
	words := (len(bits) + fecDataBits - 1) / fecDataBits
	bit := func(i int) byte {
		if i < len(bits) {
			return bits[i] & 1
		}
		return 0
	}
	for w0 := 0; w0 < words; w0 += f.Depth {
		rows := f.Depth
		if words-w0 < rows {
			rows = words - w0
		}
		// Code the block's rows into scratch, then emit column-major.
		if need := rows * fecCodeBits; cap(f.scratch) < need {
			f.scratch = make([]byte, need)
		}
		block := f.scratch[:rows*fecCodeBits]
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

// AppendDecode deinterleaves and decodes a coded bit stream produced by
// AppendEncode, appending the recovered data bits to dst. It returns the
// extended slice and the number of bit errors corrected in this call.
// The coded length must be a multiple of 7.
func (f *FEC) AppendDecode(dst []byte, coded []byte) ([]byte, int, error) {
	if len(coded)%fecCodeBits != 0 {
		return dst, 0, fmt.Errorf("comm: coded length %d not a multiple of %d", len(coded), fecCodeBits)
	}
	words := len(coded) / fecCodeBits
	fixed := 0
	for w0 := 0; w0 < words; w0 += f.Depth {
		rows := f.Depth
		if words-w0 < rows {
			rows = words - w0
		}
		if need := rows * fecCodeBits; cap(f.scratch) < need {
			f.scratch = make([]byte, need)
		}
		block := f.scratch[:rows*fecCodeBits]
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
	f.corrected += int64(fixed)
	return dst, fixed, nil
}
